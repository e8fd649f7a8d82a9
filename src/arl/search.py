"""Exact branch-and-bound solvers for desk-scale extremal questions.

Two solvers share the same report shape:

* exact_turan:        largest number of edges of an n-vertex r-graph that
                      contains no copy of any forbidden pattern.
* exact_anti_ramsey:  smallest number of colors that forces a rainbow copy
                      of a pattern in K_n^r, computed as one plus the largest
                      color count of a rainbow-free coloring.

Both walk edges in colex rank order and prune through checks anchored at the
newest decision, so a feasible prefix is never re-tested against old edges.
The walks keep explicit stacks, so host size is not capped by the
interpreter's recursion limit.
Budgets cap nodes and wall time; a tripped budget yields an honest
"budget_exhausted" report instead of an unproven value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional, Union

from .coloring import (
    BudgetExhausted,
    Coloring,
    RainbowEmbedder,
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
        for cap in (self.max_nodes, self.max_seconds):
            if cap is not None and not cap >= 0:  # NaN fails too
                raise ValueError(f"budget caps must be >= 0, got {cap}")


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
    leaves: Optional[int] = None


class _Meter:
    """Node and wall-clock accounting shared by both solvers."""

    def __init__(self, budget: Optional[SearchBudget]):
        self.nodes = 0
        self.start = time.monotonic()
        self.max_nodes = budget.max_nodes if budget else None
        self.max_seconds = budget.max_seconds if budget else None

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExhausted(self.nodes)
        if self.max_seconds is not None and (self.nodes & _TIME_CHECK_MASK) == 0:
            if time.monotonic() - self.start > self.max_seconds:
                raise BudgetExhausted(self.nodes)

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start


def _coerce_family(patterns: Union[Hypergraph, Family, Iterable[Hypergraph]]) -> Family:
    if isinstance(patterns, Hypergraph):
        return make_family([patterns])
    if isinstance(patterns, Family):
        return patterns
    return make_family(list(patterns))


def _edges_payload(fam: Family) -> list:
    return [[list(e) for e in m.edges] for m in fam.members]


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


def exact_turan(
    n: int,
    patterns: Union[Hypergraph, Family, Iterable[Hypergraph]],
    *,
    budget: Optional[SearchBudget] = None,
) -> SearchReport:
    """Maximum edge count of a pattern-free r-graph on n vertices.

    Branch and bound over the colex edge list, include branch first, so the
    first optimum reached is the colex-greedy one.  Including an edge is
    vetoed when it completes a copy of a forbidden pattern; the check is
    anchored at that edge, which keeps each node cheap.

    Edge 0 is never excluded once it can be included: that branch gets no
    exclude sibling, so edge 0 is in every leaf.  This is sound because
    pattern-freeness and edge count do not change under relabeling the
    vertices, and K_n^r is edge-transitive, so any nonempty optimum can be
    relabeled to contain edge 0.  If edge 0 alone completes a copy, then so
    does every single edge; the exclude chain still runs and returns 0.
    The include subtree of edge 0 is searched first either way, so the value
    and the witness are those of the search without the rule.
    """
    fam = _coerce_family(patterns)
    if n < 0:
        raise ValueError("n must be nonnegative")
    for m in fam.members:
        if m.num_edges == 0:
            raise ValueError("an edgeless pattern is contained in every graph")
    r = fam.r
    edges = kn_edges(n, r)
    M = len(edges)
    instance = {
        "problem": "turan",
        "n": n,
        "r": r,
        "patterns": _edges_payload(fam),
    }

    members = _drop_redundant(fam)
    matchers = [RainbowEmbedder(n, m) for m in members]
    matchers.sort(key=lambda em: (em.f.num_edges, em.f.n))
    masks = [vertex_mask(e) for e in edges]
    # vertex mask -> colex rank of each chosen edge: distinct chosen edges get
    # distinct "colors", so a rainbow copy is exactly a copy
    present: dict[int, int] = {}

    meter = _Meter(budget)
    best = 0
    best_edges: tuple[tuple[int, ...], ...] = ()

    def completes_copy(j: int) -> bool:
        anchor = edges[j]
        for em in matchers:
            hit, _ = em.find(present.get, anchor=anchor)
            if hit is not None:
                return True
        return False

    # Explicit-stack DFS, include branch first.  An entry (j, count, undo)
    # visits the node deciding edge j with count edges chosen so far; with
    # undo set it first retracts edge j, whose include subtree is finished,
    # and visits the exclude branch at j + 1.  Edge 0, once included, is
    # never retracted (see the docstring).
    stack = [(0, 0, False)]
    status = "exact"
    try:
        while stack:
            j, count, undo = stack.pop()
            if undo:
                del present[masks[j]]
                j += 1
            meter.tick()
            if count + (M - j) <= best:
                continue
            if j == M:
                best = count
                best_edges = tuple(edges[i] for i in sorted(present.values()))
                continue
            present[masks[j]] = j
            if completes_copy(j):
                del present[masks[j]]
                stack.append((j + 1, count, False))
            else:
                if j:
                    stack.append((j, count, True))
                stack.append((j + 1, count + 1, False))
    except BudgetExhausted:
        status = "budget_exhausted"

    return SearchReport(
        value=best if status == "exact" else None,
        witness=make_hypergraph(n, r, best_edges),
        nodes=meter.nodes,
        elapsed=meter.elapsed,
        status=status,
        instance=instance,
    )


def exact_anti_ramsey(
    n: int,
    pattern: Hypergraph,
    *,
    budget: Optional[SearchBudget] = None,
    prune_bound: bool = True,
) -> SearchReport:
    """Smallest color count forcing a rainbow copy of the pattern in K_n^r.

    Enumerates colorings as restricted-growth strings over the colex edge
    list, so each partition of the edge set is visited exactly once.  A
    branch dies as soon as the colored prefix holds a rainbow copy through
    its newest edge.  The answer is one more than the largest color count of
    a rainbow-free coloring; when no coloring at all is rainbow-free (single
    edge patterns) the answer is 1 and the witness is None.

    prune_bound=False disables the color-count bound so every rainbow-free
    partition becomes a leaf, and the report carries the leaf count: an
    independent Bell-number cross-check on the enumeration when the pattern
    cannot embed at all.  With the bound on, the count would depend on the
    pruning, so it is not reported.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if pattern.num_edges == 0:
        raise ValueError("an edgeless pattern is rainbow in every coloring")
    r = pattern.r
    edges = kn_edges(n, r)
    M = len(edges)
    instance = {
        "problem": "anti_ramsey",
        "n": n,
        "r": r,
        "patterns": _edges_payload(make_family([pattern])),
        "prune_bound": prune_bound,
    }

    engine = RainbowEmbedder(n, pattern)
    masks = [vertex_mask(e) for e in edges]
    color_of: dict[int, int] = {}  # vertex mask -> color of each colored edge

    meter = _Meter(budget)
    best = -1
    best_colors: Optional[tuple[int, ...]] = None
    leaves = 0

    # Explicit-stack DFS.  An entry (j, top, c) tries color c on edge j, where
    # top is the number of colors used on edges < j; c == 0 first enters the
    # node, and c > top leaves it.  The entry for c + 1 sits below the child
    # of c, so siblings run in increasing color order after each subtree.
    stack = [(0, 0, 0)]
    status = "exact"
    try:
        while stack:
            j, top, c = stack.pop()
            if c == 0:
                if j == M:
                    leaves += 1
                    if top > best:
                        best = top
                        best_colors = tuple(color_of[m] for m in masks)
                    continue
                if prune_bound and top + (M - j) <= best:
                    continue
            if c > top:
                del color_of[masks[j]]
                continue
            stack.append((j, top, c + 1))
            meter.tick()
            color_of[masks[j]] = c
            hit, _ = engine.find(color_of.get, anchor=edges[j])
            if hit is None:
                stack.append((j + 1, max(top, c + 1), 0))
    except BudgetExhausted:
        status = "budget_exhausted"

    return SearchReport(
        value=max(best, 0) + 1 if status == "exact" else None,
        witness=None if best_colors is None else make_coloring(n, r, best_colors),
        nodes=meter.nodes,
        elapsed=meter.elapsed,
        status=status,
        instance=instance,
        leaves=None if prune_bound else leaves,
    )


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
            # claimed: even one color already forces a rainbow copy
            if report.value is not None and report.value != 1:
                return False
            mono = make_coloring(inst["n"], inst["r"], [0] * comb(inst["n"], inst["r"]))
            if mono.num_colors == 0:
                return report.value is None or report.value == 1
            return any(find_rainbow_copy(mono, p) is not None for p in patterns)
        if not isinstance(chi, Coloring) or chi.n != inst["n"]:
            return False
        if report.value is not None and chi.num_colors != report.value - 1:
            return False
        return all(find_rainbow_copy(chi, p) is None for p in patterns)
    raise ValueError(f"unknown problem kind {inst['problem']!r}")
