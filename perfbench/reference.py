"""Reference answers for every benchmark instance.

Solver values come from a closed form where the literature gives one and are
otherwise pinned at the commit that introduced the benchmark; node counts are
always pinned.  A node count that differs from its pin is reported but is not
a failure, because a change to pruning moves it on purpose.  Node counts must
still agree between the two relabelings of one run: the seed only renames
pattern vertices, and neither solver's decisions depend on vertex names.
"""

from __future__ import annotations


def turan_graph_edges(n: int, ell: int) -> int:
    """Edges of the balanced complete ell-partite graph on n vertices."""
    q, s = divmod(n, ell)
    sizes = [q + 1] * s + [q] * (ell - s)
    return (n * n - sum(x * x for x in sizes)) // 2


def turan_k43_construction(n: int) -> int:
    """Edges of Turan's 3-graph: three balanced parts V0, V1, V2; every
    transversal triple, and every triple with two vertices in V_i and one in
    V_(i+1 mod 3)."""
    q, s = divmod(n, 3)
    a = [q + 1] * s + [q] * (3 - s)
    pairs = sum(a[i] * (a[i] - 1) // 2 * a[(i + 1) % 3] for i in range(3))
    return a[0] * a[1] * a[2] + pairs


# instance -> (problem, n, pattern names, value, closed form or None, its
# source, pinned solver nodes)
SOLVER = {
    "ex(8,K3)": ("turan", 8, ("K3",), 16, turan_graph_edges(8, 2),
                 "Turan: ex(n,K_(l+1)) = t(n,l)", 137681),
    "ex(7,K4)": ("turan", 7, ("K4",), 16, turan_graph_edges(7, 3),
                 "Turan: ex(n,K_(l+1)) = t(n,l)", 7618),
    "ex(6,K4^3)": ("turan", 6, ("K4^3",), 14, turan_k43_construction(6),
                   "Turan's construction is extremal at n=6", 9845),
    "ex(7,{K3,C5})": ("turan", 7, ("K3", "C5"), 12, None, "pinned", 10929),
    "ar(6,K3)": ("anti_ramsey", 6, ("K3",), 6, 6,
                 "ar(n,K3) = n (Erdos-Simonovits-Sos)", 109314),
    "ar(5,K4)": ("anti_ramsey", 5, ("K4",), 8, 5 * 5 // 4 + 2,
                 "ar(n,K4) = floor(n^2/4)+2 (Erdos-Simonovits-Sos)", 5526),
    "ar(5,C4)": ("anti_ramsey", 5, ("C4",), 6, 4 * 5 // 3,
                 "ar(n,C4) = floor(4n/3) (Alon 1983)", 8241),
    "ar(5,K4^3)": ("anti_ramsey", 5, ("K4^3",), 7, None, "pinned", 7898),
}

# zoo family sizes: number of isomorphism classes, pinned
FAMILY_SIZES = {
    "split(K4+3)": 5,
    "split(C5+3)": 8,
    "split(C4+3)": 6,
    "minus(K4+3)": 1,
    "minus(C5+3)": 1,
    "minus(C4+3)": 1,
}

# zoo lower-bound colorings: pattern, Turan host (n, parts, uniformity), and
# the number of members of the pattern's minus family
LOWER_BOUND = {
    "K4/T(14,2)": ("K4", 14, 2, 2, 1),
    "K5/T(12,3)": ("K5", 12, 3, 2, 1),
    "K4^3/T(12,3,3)": ("K4^3", 12, 3, 3, 1),
}


def check_table() -> list[str]:
    """Disagreements between pinned values and their closed forms."""
    bad = []
    for name, (_, _, _, value, closed, source, _) in SOLVER.items():
        if closed is not None and closed != value:
            bad.append(f"{name}: pinned {value} but {source} gives {closed}")
    return bad
