"""Exact branch-and-bound solvers for desk-scale extremal questions.

Two solvers share the same report shape:

* exact_turan:        largest number of edges of an n-vertex r-graph that
                      contains no copy of any forbidden pattern.
* exact_anti_ramsey:  smallest number of colors that forces a rainbow copy
                      of a pattern in K_n^r, computed as one plus the largest
                      color count of a rainbow-free coloring.

Both are one call into _solve, the one path from patterns to a report: it
checks the input, builds the matchers, runs the one depth-first loop,
_branch_and_bound, over the colex edge list and shapes the witness.  The
solvers differ only in the values an edge may take, given the number top of
colors used on earlier edges: exact_turan tries (top, None), a fresh color
and then "left out", so distinct edges get distinct colors and a rainbow
copy is a copy; exact_anti_ramsey tries range(top + 1), the restricted
growth strings.  A color is vetoed by a check anchored at the newest edge, so a
feasible prefix is never re-tested against old edges.  A node is one value
tried on one edge.  The loop keeps an explicit stack, so host size is not
capped by the interpreter's recursion limit.
Budgets cap nodes and wall time; a tripped budget yields an honest
"budget_exhausted" report instead of an unproven value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from math import comb
from typing import Callable, Iterable, Optional, Sequence, Union

from .coloring import (
    Coloring,
    RainbowEmbedder,
    check_cap,
    find_rainbow_copy,
    make_coloring,
)
from .hypergraph import (
    Family,
    Hypergraph,
    has_copy,
    kn_edges,
    make_family,
    make_hypergraph,
    vertex_mask,
)

__all__ = [
    "SearchBudget",
    "SearchReport",
    "exact_turan",
    "exact_anti_ramsey",
    "verify_feasibility",
]

_TIME_CHECK_MASK = 0x3FF  # look at the clock every 1024 nodes


@dataclass(frozen=True)
class SearchBudget:
    """Caps for one solver run; None means unlimited."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        check_cap(self.max_nodes)
        check_cap(self.max_seconds)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a solver run.

    status "exact" certifies value and witness; "budget_exhausted" leaves
    value None and carries the best feasible witness found so far, if any.
    """

    value: Optional[int]
    witness: object
    nodes: int
    elapsed: float
    status: str
    instance: dict


def _coerce_family(patterns: Union[Hypergraph, Family, Iterable[Hypergraph]]) -> Family:
    if isinstance(patterns, Hypergraph):
        return make_family([patterns])
    if isinstance(patterns, Family):
        return patterns
    return make_family(list(patterns))


def _drop_redundant(fam: Family) -> list[Hypergraph]:
    """Keep only members minimal under the subgraph order.

    If pattern a embeds into pattern b, any host containing b contains a, so
    forbidding a already forbids b and b can be dropped.  Purely a speedup;
    the feasibility predicate is unchanged.
    """
    members = list(fam.members)
    keep = []
    for i, m in enumerate(members):
        dominated = False
        for j, other in enumerate(members):
            if i == j:
                continue
            if has_copy(other, m) and not (has_copy(m, other) and j > i):
                dominated = True
                break
        if not dominated:
            keep.append(m)
    return keep


def _branch_and_bound(
    n: int,
    r: int,
    matchers: list[RainbowEmbedder],
    choices: Callable[[int], Sequence[Optional[int]]],
    budget: Optional[SearchBudget],
    prune_bound: bool,
) -> SearchReport:
    """Depth-first branch and bound over the colex edge list of K_n^r.

    Edge j gets each value of choices(top) in order, where top is the number
    of colors used on edges before j.  A value is None, which leaves the edge
    out, or a color in range(top + 1), where top itself is a fresh color.  A
    color is vetoed when some matcher's anchored find completes a rainbow
    copy through edge j.  A node is one value tried on one edge.  With
    prune_bound, a value that fits gets no subtree when a fresh color on
    every later edge could not beat the best leaf.  Both solvers pass True.
    False exists for differential tests: with the anti-Ramsey values and no
    veto, the node count is then the sum of Bell(j) over 1 <= j <= len(edges).
    It is the one off switch for every cut this loop carries.

    Stack invariant: an entry (j, top, i) tries value i of choices(top) on
    edge j, and i == len(choices(top)) leaves edge j.  The entry for i + 1
    sits below the subtree of value i, so the values run in order.  Every
    edge before the one being tried holds its value in the mask-keyed dict
    the matchers read; later edges are absent.

    Edge 0 keeps the first value that fits: that value gets no sibling.  This
    is sound when the first value of choices(0) is color 0.  A leaf's color
    count and its rainbow-freeness do not change under relabeling the
    vertices, and K_n^r is edge-transitive, so any leaf that colors some edge
    can be relabeled to color edge 0, with color 0 after renumbering the
    colors by first use.  If color 0 on edge 0 alone completes a copy, then
    so does every single edge, and the next value runs.  The subtree of the
    first value is searched first either way, so the best leaf is the one
    the search without the rule finds.

    The report's value is the best leaf's color count (None unless exact)
    and its witness that leaf's values in colex order (None if no leaf was
    reached); _solve shapes both and fills in the instance.
    """
    edges = kn_edges(n, r)
    M = len(edges)
    masks = [vertex_mask(e) for e in edges]
    options = [choices(top) for top in range(M + 1)]
    finds = [em.find for em in matchers]
    color_of: dict[int, Optional[int]] = {}  # vertex mask -> value of each decided edge
    get = color_of.get

    budget = budget or SearchBudget()
    max_nodes, max_seconds = budget.max_nodes, budget.max_seconds
    start = time.monotonic()
    nodes = 0
    best = -1
    best_values: Optional[tuple[Optional[int], ...]] = None
    stack = [(0, 0, 0)]
    status = "exact"
    while stack:
        j, top, i = stack.pop()
        if j == M:
            if top > best:
                best = top
                best_values = tuple(map(get, masks))
            continue
        opts = options[top]
        if i == len(opts):
            del color_of[masks[j]]
            continue
        nodes += 1
        if (max_nodes is not None and nodes > max_nodes) or (
            max_seconds is not None
            and not nodes & _TIME_CHECK_MASK
            and time.monotonic() - start > max_seconds
        ):
            status = "budget_exhausted"
            break
        c = opts[i]
        color_of[masks[j]] = c
        fits = True
        if c is not None:
            anchor = edges[j]
            for find in finds:
                if find(get, anchor=anchor)[0] is not None:
                    fits = False
                    break
        if j or not fits:
            stack.append((j, top, i + 1))
        if fits:
            top += c == top
            if not prune_bound or top + (M - j - 1) > best:
                stack.append((j + 1, top, 0))

    return SearchReport(
        value=best if status == "exact" else None,
        witness=best_values,
        nodes=nodes,
        elapsed=time.monotonic() - start,
        status=status,
        instance={},
    )


def _solve(
    problem: str, n: int, family: Family, budget: Optional[SearchBudget]
) -> SearchReport:
    """Run one solver: the one path from patterns to a report.

    Checks the input, builds one anchored matcher per member _drop_redundant
    keeps, fewest edges first, and runs _branch_and_bound with the problem's
    values: (top, None) for "turan", range(top + 1) for "anti_ramsey".  A
    turan leaf becomes the Hypergraph of its chosen edges; an anti_ramsey
    leaf becomes a Coloring, and the value is one more than its color count.
    """
    turan = problem == "turan"
    if n < 0:
        raise ValueError("n must be nonnegative")
    if any(m.num_edges == 0 for m in family.members):
        where = "contained in every graph" if turan else "rainbow in every coloring"
        raise ValueError(f"an edgeless pattern is {where}")
    r = family.r
    matchers = [RainbowEmbedder(n, m) for m in _drop_redundant(family)]
    matchers.sort(key=lambda em: (em.f.num_edges, em.f.n))
    choices = (lambda top: (top, None)) if turan else (lambda top: range(top + 1))
    rep = _branch_and_bound(n, r, matchers, choices, budget, True)
    if turan:
        chosen = [e for e, c in zip(kn_edges(n, r), rep.witness or ()) if c is not None]
        value, witness = rep.value, make_hypergraph(n, r, chosen)
    else:
        value = None if rep.value is None else max(rep.value, 0) + 1
        witness = None if rep.witness is None else make_coloring(n, r, rep.witness)
    patterns = [[list(e) for e in m.edges] for m in family.members]
    instance = {"problem": problem, "n": n, "r": r, "patterns": patterns}
    return replace(rep, value=value, witness=witness, instance=instance)


def exact_turan(
    n: int,
    patterns: Union[Hypergraph, Family, Iterable[Hypergraph]],
    *,
    budget: Optional[SearchBudget] = None,
) -> SearchReport:
    """Maximum edge count of a pattern-free r-graph on n vertices.

    Each edge is tried included, with a fresh color, before it is left out,
    so the first optimum reached is the colex-greedy one.  Distinct chosen
    edges get distinct colors, so a rainbow copy is exactly a copy, and an
    edge is vetoed when it completes a copy of a forbidden pattern.  Edge 0
    is in every leaf once it can be included (see _branch_and_bound).
    """
    return _solve("turan", n, _coerce_family(patterns), budget)


def exact_anti_ramsey(
    n: int,
    pattern: Hypergraph,
    *,
    budget: Optional[SearchBudget] = None,
) -> SearchReport:
    """Smallest color count forcing a rainbow copy of the pattern in K_n^r.

    Enumerates colorings as restricted-growth strings over the colex edge
    list, so each partition of the edge set is visited exactly once.  A
    branch dies as soon as the colored prefix holds a rainbow copy through
    its newest edge.  The answer is one more than the largest color count of
    a rainbow-free coloring; when no coloring at all is rainbow-free (single
    edge patterns) the answer is 1 and the witness is None.
    """
    return _solve("anti_ramsey", n, make_family([pattern]), budget)


def verify_feasibility(report: SearchReport) -> bool:
    """Re-check a report's witness along an independent path.

    Turan witnesses are re-tested with has_copy, a free (unanchored) search
    over the whole witness rather than the solver's anchored checks; coloring
    witnesses with the from-scratch rainbow search.  Only feasibility
    is certified here (the witness attains the claimed value and satisfies
    the constraint), not optimality.
    """
    inst = report.instance
    patterns = [
        make_hypergraph(max((v for e in pe for v in e), default=-1) + 1, inst["r"],
                        [tuple(e) for e in pe])
        for pe in inst["patterns"]
    ]
    if inst["problem"] == "turan":
        host = report.witness
        if not isinstance(host, Hypergraph) or host.n != inst["n"]:
            return False
        if report.value is not None and host.num_edges != report.value:
            return False
        return not any(has_copy(p, host) for p in patterns)
    if inst["problem"] == "anti_ramsey":
        chi = report.witness
        if chi is None:
            # a run stopped before its first leaf claims nothing; an exact one
            # claims that even one color already forces a rainbow copy
            if report.status != "exact":
                return True
            if report.value != 1:
                return False
            mono = make_coloring(inst["n"], inst["r"], [0] * comb(inst["n"], inst["r"]))
            if mono.num_colors == 0:
                return True
            return any(find_rainbow_copy(mono, p) is not None for p in patterns)
        if not isinstance(chi, Coloring) or chi.n != inst["n"]:
            return False
        if report.value is not None and chi.num_colors != report.value - 1:
            return False
        return all(find_rainbow_copy(chi, p) is None for p in patterns)
    raise ValueError(f"unknown problem kind {inst['problem']!r}")
