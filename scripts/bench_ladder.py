#!/usr/bin/env python3
"""Time the exact-solve ladder and write BENCH_<label>.json.

Runs ex(8,K3), ex(8,K4), ex(8,C4), ex(7,K4^3), ar(5,K4), ar(6,K3) and
ar(6,K4), each three times under a 60 s budget, and records per instance
the value, status, solver nodes (summed over the rungs of the climb) and
the median wall time.  It also records src_lines, the line count of the
library's *.py files, so code size is tracked next to the timings.
Run it as:

    PYTHONPATH=src python3 scripts/bench_ladder.py <label>

The file is written to the current directory.  It uses only the public
solver API, so the same script can time an older checkout: run it there with
that checkout's src on PYTHONPATH.
"""

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

import arl
from arl.constructions import complete_graph, complete_hypergraph, cycle_graph
from arl.search import SearchBudget, exact_anti_ramsey, exact_turan

K3, K4, C4 = complete_graph(3), complete_graph(4), cycle_graph(4)
K4_3 = complete_hypergraph(4, 3)
LADDER = [
    ("ex(8,K3)", lambda b: exact_turan(8, [K3], budget=b)),
    ("ex(8,K4)", lambda b: exact_turan(8, [K4], budget=b)),
    ("ex(8,C4)", lambda b: exact_turan(8, [C4], budget=b)),
    ("ex(7,K4^3)", lambda b: exact_turan(7, [K4_3], budget=b)),
    ("ar(5,K4)", lambda b: exact_anti_ramsey(5, K4, budget=b)),
    ("ar(6,K3)", lambda b: exact_anti_ramsey(6, K3, budget=b)),
    ("ar(6,K4)", lambda b: exact_anti_ramsey(6, K4, budget=b)),
]
REPEATS = 3
MAX_SECONDS = 60.0


def src_lines() -> int:
    """Newlines in the *.py files beside arl.__file__, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in Path(arl.__file__).parent.glob("*.py"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label", help="names the output file BENCH_<label>.json")
    args = ap.parse_args()

    rows = {}
    for name, solve in LADDER:
        walls, reports = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            rep = solve(SearchBudget(max_seconds=MAX_SECONDS))
            walls.append(time.perf_counter() - t0)
            reports.append(rep)
        rows[name] = {
            "value": reports[0].value,
            "status": reports[0].status,
            "nodes": reports[0].nodes,
            "wall_s": statistics.median(walls),
            "wall_s_runs": walls,
            "nodes_runs": [rep.nodes for rep in reports],
        }
        print(f"{name:<11} value={reports[0].value} status={reports[0].status} "
              f"nodes={reports[0].nodes} wall_s={statistics.median(walls):.2f}", flush=True)

    out = {
        "label": args.label,
        "budget_s": MAX_SECONDS,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "src_lines": src_lines(),
        "instances": rows,
    }
    path = f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
