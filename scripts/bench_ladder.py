#!/usr/bin/env python3
"""Time the exact-solve ladder and write BENCH_<label>.json.

Runs ex(8,K3), ex(8,K4), ex(8,C4), ex(7,K4^3), ar(5,K4), ar(6,K3),
ar(6,K4), ar(7,K3), ar(7,C4), ar(7,K4), ar(8,K3), ar(6,K4^3) and ar(6,C5),
each five times under a 60 s budget (ar(6,C5) is the row where the
deficit cap barely cuts), and ar(6,HK3^3), HK3^3 = expansion(K3,3), five
times under a 300,000-node cap alone: the ladder's cuts are vacuous there,
so it times the branch-and-bound loop.  ex(24,{K4^3, expansion(K_{4,4},3)})
runs five times under a 10-node cap alone, which times the symmetry setup
of the 24-vertex member; the setup is not cached, so each run and each
repeat pays for it.
ex(10,{expansion(K4,3)}) and ex(10,{expansion(C5,3)}) run five times each
under a 1-node cap alone: rung 10 is the first one searched, so each run
times the listing of its copy table (151,200 and 362,880 copies) and ends
budget_exhausted after 2 nodes.
It records per instance the value, status, solver nodes (summed over the
rungs of the climb), the median wall time and the time of each run.  Eight
rows outside the solver follow, also timed five times each: the splitting
family of expansion(C6,3), the weak splitting family of expansion(K5,4),
the minus family of expansion(K8,3), canonical_key of expansion(K8,3) less
one edge (its one minus-family member: 35 vertices and no twins, the
dedupe cost of a class that needs a key), find_rainbow_copy of K5 in the
lower-bound coloring on T(12,3) (the Turan graph's edges in distinct
colors, every other pair in one more), has_copy of expansion(K5,3) in the
empty 15-vertex 3-graph, and the copy tables of expansion(K3,3) on 12
vertices and of C5 on 16 vertices, listed to exhaustion.  Each records its
result and, for find_rainbow_copy and has_copy, the node count of
RainbowEmbedder.find; a table row's result is its number of copies, and
the canonical_key row's a digest of the key, keyed on a fresh copy of the
graph each call, so no cached property carries over.  The
two table rows time the listing past each pattern's first fit, which the
solver rows barely reach; they call the private
arl.search._copy_tables(n, family), whose signature older checkouts share.
A run whose first pass takes under 50 ms repeats its operation in the same
interpreter until the repeats take 50 ms, and records the time per
operation of the repeats and their number as reps.  A run whose first pass
takes 0.1 to 1 s runs its operation three times in all and records the
least time, with reps 3: at that length one pass per fresh interpreter
spreads by tens of percent with no change to the code.  It also records
src_lines, the line count of the library's *.py files, so code size is
tracked next to the timings.
Run it as:

    PYTHONPATH=src python3 scripts/bench_ladder.py <label>

The file is written to the current directory.  Every run is timed in a
fresh interpreter (the script itself, with --row).  It uses the public
solver API and _copy_tables alone, so the same script can time an older
checkout.  To compare one, pass its src:

    PYTHONPATH=src python3 scripts/bench_ladder.py <label> --parent OLD/src

Each row's repeats then alternate between OLD/src and this src, so drift of
the machine lands on both sides of the pair alike; the one run writes
BENCH_pre<label>.json for OLD/src and BENCH_<label>.json for this src.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import arl
from arl.canonical import canonical_key
from arl.coloring import RainbowEmbedder, find_rainbow_copy, make_coloring
from arl.constructions import (
    complete_graph,
    complete_hypergraph,
    cycle_graph,
    expansion,
    minus_family,
    splitting_family,
    turan_hypergraph,
)
from arl.hypergraph import (
    Hypergraph,
    has_copy,
    kn_edges,
    make_family,
    make_hypergraph,
    vertex_mask,
)
from arl.search import SearchBudget, _copy_tables, exact_anti_ramsey, exact_turan

K3, K4, K5, C4 = complete_graph(3), complete_graph(4), complete_graph(5), cycle_graph(4)
K4_3 = complete_hypergraph(4, 3)
HK44 = expansion(make_hypergraph(8, 2, [(i, j) for i in range(4) for j in range(4, 8)]), 3)
LADDER = [
    ("ex(8,K3)", lambda b: exact_turan(8, [K3], budget=b)),
    ("ex(8,K4)", lambda b: exact_turan(8, [K4], budget=b)),
    ("ex(8,C4)", lambda b: exact_turan(8, [C4], budget=b)),
    ("ex(7,K4^3)", lambda b: exact_turan(7, [K4_3], budget=b)),
    ("ar(5,K4)", lambda b: exact_anti_ramsey(5, K4, budget=b)),
    ("ar(6,K3)", lambda b: exact_anti_ramsey(6, K3, budget=b)),
    ("ar(6,K4)", lambda b: exact_anti_ramsey(6, K4, budget=b)),
    ("ar(7,K3)", lambda b: exact_anti_ramsey(7, K3, budget=b)),
    ("ar(7,C4)", lambda b: exact_anti_ramsey(7, C4, budget=b)),
    ("ar(7,K4)", lambda b: exact_anti_ramsey(7, K4, budget=b)),
    ("ar(8,K3)", lambda b: exact_anti_ramsey(8, K3, budget=b)),
    ("ar(6,K4^3)", lambda b: exact_anti_ramsey(6, K4_3, budget=b)),
    ("ar(6,C5)", lambda b: exact_anti_ramsey(6, cycle_graph(5), budget=b)),
    ("ar(6,HK3^3) at 300,000 nodes",
     lambda b: exact_anti_ramsey(6, expansion(K3, 3), budget=SearchBudget(max_nodes=300_000))),
    ("ex(24,{K4^3,HK44}) at 10 nodes",
     lambda b: exact_turan(24, [K4_3, HK44], budget=SearchBudget(max_nodes=10))),
    ("ex(10,{expansion(K4,3)}) at 1 node",
     lambda b: exact_turan(10, [expansion(K4, 3)], budget=SearchBudget(max_nodes=1))),
    ("ex(10,{expansion(C5,3)}) at 1 node",
     lambda b: exact_turan(10, [expansion(cycle_graph(5), 3)], budget=SearchBudget(max_nodes=1))),
]
REPEATS = 5
MAX_SECONDS = 60.0
SHORT_S = 0.05  # a run faster than this repeats its operation for this long
MIN_OF_S = (0.1, 1.0)  # a run this long runs its operation MIN_OF times, least time kept
MIN_OF = 3


def lower_bound_coloring(n: int, ell: int, r: int):
    """T_r(n, ell)'s edges in distinct colors, every other edge in one more."""
    host = turan_hypergraph(n, ell, r).edge_set
    ids: dict = {}
    return make_coloring(n, r, [ids.setdefault(e if e in host else "rest", len(ids))
                                for e in kn_edges(n, r)])


def copies(n: int, f) -> int:
    """The number of copies of f in the copy table of K_n^r, listed in full."""
    *_, table = _copy_tables(n, make_family([f]))
    return sum(map(len, table))


def find_nodes(n, f, colors: dict) -> int:
    """Nodes of the free search for f in K_n^r, colors keyed by vertex mask."""
    return RainbowEmbedder(n, f).find(colors.get)[1]


def digest(key) -> str:
    """A short fingerprint of a canonical key, equal exactly when the keys are."""
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


HK5, HK3, EMPTY15 = expansion(K5, 3), expansion(K3, 3), make_hypergraph(15, 3, [])
HK8_MINUS = minus_family(expansion(complete_graph(8), 3)).members[0]
K5_T = lower_bound_coloring(12, 3, 2)
K5_T_COLORS = {vertex_mask(e): c for e, c in zip(kn_edges(12, 2), K5_T.colors)}
# name, operation, result summary, node count of its find (or None)
OUTSIDE = [
    ("splitting_family(expansion(C6,3))",
     lambda: splitting_family(expansion(cycle_graph(6), 3)), len, None),
    ("splitting_family(expansion(K5,4), weak)",
     lambda: splitting_family(expansion(K5, 4), "weak"), len, None),
    ("minus_family(expansion(K8,3))",
     lambda: minus_family(expansion(complete_graph(8), 3)), len, None),
    ("canonical_key(expansion(K8,3) - e)",
     lambda: canonical_key(Hypergraph(HK8_MINUS.n, HK8_MINUS.r, HK8_MINUS.edges)), digest, None),
    ("find_rainbow_copy(K5, T(12,3) coloring)",
     lambda: find_rainbow_copy(K5_T, K5), lambda w: w is not None,
     lambda: find_nodes(12, K5, K5_T_COLORS)),
    ("has_copy(expansion(K5,3), empty K_15^3)",
     lambda: has_copy(HK5, EMPTY15), bool, lambda: find_nodes(15, HK5, {})),
    ("copy table of expansion(K3,3) in K_12^3", lambda: copies(12, HK3), int, None),
    ("copy table of C5 in K_16", lambda: copies(16, cycle_graph(5)), int, None),
]


def src_lines(src: Path) -> int:
    """Newlines in the library's *.py files under src, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (src / "arl").glob("*.py"))


def timed(op) -> tuple:
    """op's result, its time per call and the number of calls timed: one
    call; when that takes under SHORT_S, the mean of as many more as fill
    SHORT_S; when it takes a time within MIN_OF_S, the least of MIN_OF calls."""
    t0 = time.perf_counter()
    result = op()
    wall, reps = time.perf_counter() - t0, 1
    if wall < SHORT_S:
        reps, t0 = 0, time.perf_counter()
        while time.perf_counter() - t0 < SHORT_S:
            op()
            reps += 1
        wall = (time.perf_counter() - t0) / reps
    elif MIN_OF_S[0] <= wall <= MIN_OF_S[1]:
        for reps in range(2, MIN_OF + 1):
            t0 = time.perf_counter()
            op()
            wall = min(wall, time.perf_counter() - t0)
    return result, wall, reps


def run_row(name: str) -> dict:
    """Run the named row in this interpreter and return its time per
    operation and what it found."""
    for ladder_name, solve in LADDER:
        if ladder_name == name:
            rep, wall, reps = timed(lambda: solve(SearchBudget(max_seconds=MAX_SECONDS)))
            return {"value": rep.value, "status": rep.status, "nodes": rep.nodes,
                    "wall_s": wall, "reps": reps}
    for outside_name, op, summary, nodes in OUTSIDE:
        if outside_name == name:
            result, wall, reps = timed(op)
            return {"result": summary(result), "find_nodes": None if nodes is None else nodes(),
                    "wall_s": wall, "reps": reps}
    raise SystemExit(f"no row named {name!r}")


def run_row_in(src: Path, name: str) -> dict:
    """Run the named row once in a fresh interpreter that imports arl from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, __file__, "--row", name], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def summarize(runs: list) -> dict:
    """One row's record: the first run's findings, the median and each run's
    time per operation, and each run's repeats."""
    walls = [run["wall_s"] for run in runs]
    row = {k: v for k, v in runs[0].items() if k not in ("wall_s", "reps")}
    row.update(wall_s=statistics.median(walls), wall_s_runs=walls,
               reps_runs=[run["reps"] for run in runs])
    if "nodes" in row:
        row["nodes_runs"] = [run["nodes"] for run in runs]
    return row


def write(label: str, src: Path, rows: dict) -> None:
    """Write BENCH_<label>.json: the rows timed against the library in src."""
    names = [name for name, *_ in LADDER]
    out = {
        "label": label,
        "budget_s": MAX_SECONDS,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "src_lines": src_lines(src),
        "instances": {name: rows[name] for name in names},
        "outside_solver": {name: row for name, row in rows.items() if name not in names},
    }
    path = f"BENCH_{label}.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label", nargs="?", help="names the output file BENCH_<label>.json")
    ap.add_argument("--parent", type=Path, metavar="SRC",
                    help="also time the library in SRC, alternating with this one; "
                         "write BENCH_pre<label>.json too")
    # the child: run one row once and print its record as JSON
    ap.add_argument("--row", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.row is not None:
        print(json.dumps(run_row(args.row)))
        return 0
    if args.label is None:
        ap.error("a label is required")

    here = Path(arl.__file__).resolve().parent.parent
    trees = {args.label: here} if args.parent is None else {
        "pre" + args.label: args.parent.resolve(), args.label: here}
    rows: dict = {label: {} for label in trees}
    for name in [name for name, *_ in LADDER] + [name for name, *_ in OUTSIDE]:
        runs: dict = {label: [] for label in trees}
        for k in range(REPEATS):
            # alternate which tree goes first, so neither always runs warmer
            for label in list(trees)[:: 1 if k % 2 == 0 else -1]:
                runs[label].append(run_row_in(trees[label], name))
        for label in trees:
            rows[label][name] = row = summarize(runs[label])
            found = " ".join(f"{k}={v}" for k, v in row.items()
                             if k in ("value", "status", "nodes", "result", "find_nodes"))
            print(f"{label:<10} {name:<40} {found} wall_s={row['wall_s']:.4f}", flush=True)
    for label, src in trees.items():
        write(label, src, rows[label])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
