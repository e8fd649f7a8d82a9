#!/usr/bin/env python3
"""Tabulate exact anti-Ramsey values for a few small patterns.

Prints a table with one row per pattern and one column per n: the value
ar(n, F), or '-' where n is below the pattern's uniformity.  Growth is easy
to eyeball against the quadratic lower-bound term:

    python3 scripts/ar_small_values.py --max-n 6 [--budget-nodes N]

Patterns whose search exhausts the budget show '?' instead of a value.
"""

import argparse

from arl.constructions import complete_graph, expansion, path_graph
from arl.hypergraph import make_hypergraph
from arl.search import SearchBudget, exact_anti_ramsey

PATTERNS = [
    ("P3", path_graph(2)),
    ("K3", complete_graph(3)),
    ("K4", complete_graph(4)),
    ("book3", make_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])),
    ("cherry3", make_hypergraph(5, 3, [(0, 1, 2), (0, 3, 4)])),
    ("HK3^3", expansion(complete_graph(3), 3)),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--budget-nodes", type=int, default=2_000_000)
    args = ap.parse_args()

    budget = SearchBudget(max_nodes=args.budget_nodes)
    print(f"{'pattern':<9} {'r':>2} " + " ".join(f"{f'n={n}':>8}" for n in range(2, args.max_n + 1)))
    for name, f in PATTERNS:
        cells = []
        for n in range(2, args.max_n + 1):
            if n < f.r:
                cells.append(f"{'-':>8}")
                continue
            rep = exact_anti_ramsey(n, f, budget=budget)
            cells.append(f"{rep.value if rep.value is not None else '?':>8}")
        print(f"{name:<9} {f.r:>2} " + " ".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
