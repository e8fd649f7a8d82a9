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
arl.search._copy_tables(n, family), whose signature older checkouts share;
its last yield is the host (table, masks, most), or in older checkouts the
bare table, and final_table takes the table from either.
One timing rule holds for every row: a run times one call of its
operation, and a run whose call takes under 50 ms repeats the operation
until the repeats take 50 ms and records the time per operation of the
repeats and their number as reps.  It also records src_lines, the line
count of the library's *.py files, so code size is tracked next to the
timings.
Run it as:

    python3 scripts/bench_ladder.py <label>

It imports the library from this checkout's src, so no PYTHONPATH is
needed, and writes the file to the current directory.  It uses the public
solver API and _copy_tables alone, so it can time an older checkout too:

    python3 scripts/bench_ladder.py <label> --parent OLD/src

Both srcs are then imported into this one interpreter as two module trees,
each row's inputs are built from the tree it runs on, and a row's runs
alternate between the trees, the first tree alternating too, so drift of
the machine lands on both sides of the pair alike.  The run writes
BENCH_pre<label>.json for OLD/src and BENCH_<label>.json for this src,
prints RATIO <row> <x> for each row, x the median over the runs k of this
src's time over OLD/src's in run k (the two times of a run are taken next
to each other, so a slow spell of the machine lands on both), then
SPREAD <row> <lo> <hi>, the least and largest of those per-run ratios.  A
row whose spread reaches both below 0.9 and above 1.1 is unresolved: its
runs disagree on the sign of a 10% change, so its RATIO says nothing about
one, and UNRESOLVED <row> follows its SPREAD (see unresolved).  It prints
MISMATCH <row> for each row whose findings (value, status, nodes, result,
find_nodes) differ between the trees or between runs of one tree.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

REPEATS = 5
MAX_SECONDS = 60.0
SHORT_S = 0.05  # a run faster than this repeats its operation for this long


def arl_names() -> list:
    return [name for name in sys.modules if name == "arl" or name.startswith("arl.")]


def bind(tree: dict) -> None:
    """Put exactly tree's modules in sys.modules as arl, so an import made at
    call time (has_copy imports RainbowEmbedder) finds the running tree."""
    for name in arl_names():
        del sys.modules[name]
    sys.modules.update(tree)


def load(src: Path) -> dict:
    """Import arl.search from src as a module tree of its own, left bound,
    and return its arl modules by name."""
    bind({})
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("arl.search")
    finally:
        sys.path.remove(str(src))
    if not Path(sys.modules["arl"].__file__).resolve().is_relative_to(src.resolve()):
        # src has no arl, and the one imported came from further down sys.path
        raise SystemExit(f"no arl package in {src}")
    return {name: sys.modules[name] for name in arl_names()}


def rows(tree: dict) -> list:
    """Every row as (name, op, findings), its inputs built from the bound
    module tree: op() is the timed operation and findings(result) what it
    found."""
    cons, hg, search = tree["arl.constructions"], tree["arl.hypergraph"], tree["arl.search"]
    col = tree["arl.coloring"]
    ex, ar, Budget = search.exact_turan, search.exact_anti_ramsey, search.SearchBudget
    K3, K4, K5 = cons.complete_graph(3), cons.complete_graph(4), cons.complete_graph(5)
    C4, K4_3 = cons.cycle_graph(4), cons.complete_hypergraph(4, 3)
    HK44 = cons.expansion(hg.make_hypergraph(8, 2, [(i, j) for i in range(4) for j in range(4, 8)]), 3)
    b = Budget(max_seconds=MAX_SECONDS)
    ladder = [
        ("ex(8,K3)", lambda: ex(8, [K3], budget=b)),
        ("ex(8,K4)", lambda: ex(8, [K4], budget=b)),
        ("ex(8,C4)", lambda: ex(8, [C4], budget=b)),
        ("ex(7,K4^3)", lambda: ex(7, [K4_3], budget=b)),
        ("ar(5,K4)", lambda: ar(5, K4, budget=b)),
        ("ar(6,K3)", lambda: ar(6, K3, budget=b)),
        ("ar(6,K4)", lambda: ar(6, K4, budget=b)),
        ("ar(7,K3)", lambda: ar(7, K3, budget=b)),
        ("ar(7,C4)", lambda: ar(7, C4, budget=b)),
        ("ar(7,K4)", lambda: ar(7, K4, budget=b)),
        ("ar(8,K3)", lambda: ar(8, K3, budget=b)),
        ("ar(6,K4^3)", lambda: ar(6, K4_3, budget=b)),
        ("ar(6,C5)", lambda: ar(6, cons.cycle_graph(5), budget=b)),
        ("ar(6,HK3^3) at 300,000 nodes",
         lambda: ar(6, cons.expansion(K3, 3), budget=Budget(max_nodes=300_000))),
        ("ex(24,{K4^3,HK44}) at 10 nodes",
         lambda: ex(24, [K4_3, HK44], budget=Budget(max_nodes=10))),
        ("ex(10,{expansion(K4,3)}) at 1 node",
         lambda: ex(10, [cons.expansion(K4, 3)], budget=Budget(max_nodes=1))),
        ("ex(10,{expansion(C5,3)}) at 1 node",
         lambda: ex(10, [cons.expansion(cons.cycle_graph(5), 3)], budget=Budget(max_nodes=1))),
    ]

    def report(rep) -> dict:
        return {"value": rep.value, "status": rep.status, "nodes": rep.nodes}

    def found(summary, nodes=None):
        """A result summarized, with the node count of its find (or None)."""
        return lambda result: {"result": summary(result), "find_nodes": nodes and nodes()}

    def copies(n: int, f) -> int:
        """The number of copies of f in the copy table of K_n^r, listed in full."""
        return sum(map(len, final_table(search._copy_tables(n, hg.make_family([f])))))

    def find_nodes(n, f, colors: dict) -> int:
        """Nodes of the free search for f in K_n^r, colors keyed by vertex mask."""
        return col.RainbowEmbedder(n, f).find(colors.get)[1]

    def digest(key) -> str:
        """A short fingerprint of a canonical key, equal exactly when the keys are."""
        return hashlib.sha256(repr(key).encode()).hexdigest()[:16]

    # the lower-bound coloring: T(12,3)'s edges in distinct colors, every other pair in one more
    host, ids = cons.turan_hypergraph(12, 3, 2).edge_set, {}
    k5_t = col.make_coloring(12, 2, [
        ids.setdefault(e if e in host else "rest", len(ids)) for e in hg.kn_edges(12, 2)])
    k5_t_colors = {hg.vertex_mask(e): c for e, c in zip(hg.kn_edges(12, 2), k5_t.colors)}
    HK5, HK3, EMPTY15 = cons.expansion(K5, 3), cons.expansion(K3, 3), hg.make_hypergraph(15, 3, [])
    HK8_MINUS = cons.minus_family(cons.expansion(cons.complete_graph(8), 3)).members[0]
    outside = [
        ("splitting_family(expansion(C6,3))",
         lambda: cons.splitting_family(cons.expansion(cons.cycle_graph(6), 3)), found(len)),
        ("splitting_family(expansion(K5,4), weak)",
         lambda: cons.splitting_family(cons.expansion(K5, 4), "weak"), found(len)),
        ("minus_family(expansion(K8,3))",
         lambda: cons.minus_family(cons.expansion(cons.complete_graph(8), 3)), found(len)),
        ("canonical_key(expansion(K8,3) - e)",
         lambda: tree["arl.canonical"].canonical_key(
             hg.Hypergraph(HK8_MINUS.n, HK8_MINUS.r, HK8_MINUS.edges)), found(digest)),
        ("find_rainbow_copy(K5, T(12,3) coloring)",
         lambda: col.find_rainbow_copy(k5_t, K5),
         found(lambda w: w is not None, lambda: find_nodes(12, K5, k5_t_colors))),
        ("has_copy(expansion(K5,3), empty K_15^3)",
         lambda: hg.has_copy(HK5, EMPTY15), found(bool, lambda: find_nodes(15, HK5, {}))),
        ("copy table of expansion(K3,3) in K_12^3", lambda: copies(12, HK3), found(int)),
        ("copy table of C5 in K_16", lambda: copies(16, cons.cycle_graph(5)), found(int)),
    ]
    return [(name, op, report) for name, op in ladder] + outside


def final_table(yields) -> list:
    """The copy table of the last host that _copy_tables yields, from the
    host (table, masks, most) or from a bare table."""
    *_, last = yields
    return last[0] if isinstance(last, tuple) else last


def src_lines(src: Path) -> int:
    """Newlines in the library's *.py files under src, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (src / "arl").glob("*.py"))


def timed(op) -> tuple:
    """op's result, its time per call and the number of calls timed: one
    call, or when that takes under SHORT_S, the mean of as many more as fill
    SHORT_S."""
    t0 = time.perf_counter()
    result = op()
    wall, reps = time.perf_counter() - t0, 1
    if wall < SHORT_S:
        reps, t0 = 0, time.perf_counter()
        while time.perf_counter() - t0 < SHORT_S:
            op()
            reps += 1
        wall = (time.perf_counter() - t0) / reps
    return result, wall, reps


def summarize(runs: list) -> dict:
    """One row's record from its runs, each (findings, time per operation,
    repeats): the first run's findings, the median and each run's time per
    operation, and each run's repeats."""
    found, walls, reps = zip(*runs)
    row = dict(found[0])
    row.update(wall_s=statistics.median(walls), wall_s_runs=list(walls), reps_runs=list(reps))
    if "nodes" in row:
        row["nodes_runs"] = [f["nodes"] for f in found]
    return row


def run_ratios(this: list, parent: list) -> list:
    """this[k] / parent[k] for each run k: each run's times compared within
    the run, not the medians of the two trees."""
    return [a / b for a, b in zip(this, parent)]


def paired_ratio(this: list, parent: list) -> float:
    """The median of the per-run ratios."""
    return statistics.median(run_ratios(this, parent))


def unresolved(ratios: list) -> bool:
    """Whether per-run ratios reach both below 0.9 and above 1.1, so the
    runs disagree on the sign of a 10% change."""
    return min(ratios) < 0.9 and max(ratios) > 1.1


def write(label: str, src: Path, rows: dict) -> None:
    """Write BENCH_<label>.json: the rows timed against the library in src."""
    out = {
        "label": label,
        "budget_s": MAX_SECONDS,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "src_lines": src_lines(src),
        "instances": {name: row for name, row in rows.items() if "status" in row},
        "outside_solver": {name: row for name, row in rows.items() if "status" not in row},
    }
    path = f"BENCH_{label}.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label", help="names the output file BENCH_<label>.json")
    ap.add_argument("--parent", type=Path, metavar="SRC",
                    help="also time the library in SRC, alternating with this one; "
                         "write BENCH_pre<label>.json too")
    args = ap.parse_args()

    here = Path(__file__).resolve().parent.parent / "src"
    srcs = {args.label: here} if args.parent is None else {
        "pre" + args.label: args.parent.resolve(), args.label: here}
    trees, ops = {}, {}
    for label, src in srcs.items():
        trees[label] = load(src)
        ops[label] = rows(trees[label])
    out: dict = {label: {} for label in trees}
    for i, (name, *_) in enumerate(ops[args.label]):
        runs: dict = {label: [] for label in trees}
        for k in range(REPEATS):
            # alternate which tree goes first, so neither always runs warmer
            for label in list(trees)[:: 1 if k % 2 == 0 else -1]:
                _, op, findings = ops[label][i]
                bind(trees[label])
                result, wall, reps = timed(op)
                runs[label].append((findings(result), wall, reps))
        for label in trees:
            out[label][name] = row = summarize(runs[label])
            found = " ".join(f"{k}={row[k]}" for k in runs[label][0][0])
            print(f"{label:<10} {name:<40} {found} wall_s={row['wall_s']:.4f}", flush=True)
        if args.parent is not None:
            this, parent = (out[label][name]["wall_s_runs"]
                            for label in (args.label, "pre" + args.label))
            ratios = run_ratios(this, parent)
            print(f"RATIO {name} {paired_ratio(this, parent):.3f}", flush=True)
            print(f"SPREAD {name} {min(ratios):.3f} {max(ratios):.3f}", flush=True)
            if unresolved(ratios):
                print(f"UNRESOLVED {name}", flush=True)
        if len({repr(f) for label in trees for f, _, _ in runs[label]}) > 1:
            print(f"MISMATCH {name}", flush=True)
    for label, src in srcs.items():
        write(label, src, out[label])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
