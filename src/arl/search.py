"""Exact branch-and-bound solvers for desk-scale extremal questions.

Two solvers share the same report shape:

* exact_turan:        largest number of edges of an n-vertex r-graph that
                      contains no copy of any forbidden pattern.
* exact_anti_ramsey:  smallest number of colors that forces a rainbow copy
                      of a pattern in K_n^r, computed as one plus the largest
                      color count of a rainbow-free coloring.

Both are one call into _solve, the one path from patterns to a report: it
checks the input, climbs the ladder of hosts K_k^r for k = r..n and shapes
the witness.  Each rung runs the one depth-first loop, _branch_and_bound,
over the colex edge list, and the value of rung k - 1 cuts rung k: deleting
a vertex from a leaf on k vertices leaves a leaf on k - 1.  Summed over the
vertices, this caps the colors of a branch, the lower the fewer vertices
its reused colors' edges still share.  Nearly all of a solve proves that
its best leaf is optimal, so this upper bound is where the climb pays.  The
solvers differ only in the values an edge may take, given
the number top of colors used on earlier edges.  Both try the fresh color top
first: exact_turan then tries None, "left out", so distinct edges get
distinct colors and a rainbow copy is a copy; exact_anti_ramsey then tries
range(top), the restricted growth strings.  A copy table lists every copy of
a pattern in the host under its highest-ranked edge, and grows by one vertex
per rung, so a solve lists each copy once: a search lists a pattern's copies
on its own vertices, and relabeling them lists those on every larger vertex
set.  A color on the newest edge is vetoed when a copy listed under that
edge would be rainbow with it, so a feasible prefix is never re-tested
against old edges.  A node is one value tried on one edge.  The loop keeps
its place in per-edge arrays, not in recursion, so host size is not capped
by the interpreter's recursion limit.
Budgets cap nodes and wall time over the whole climb; a tripped budget
yields an honest "budget_exhausted" report instead of an unproven value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .canonical import stabilizer_orbits
from .coloring import Coloring, RainbowEmbedder, check_cap, find_rainbow_copy, make_coloring
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

# nodes plus copies scanned between clock reads; a node costs about one copy
_CLOCK_TICKS = 4096

# per problem, the values an edge may take given the colors top used before it
_VALUES: dict[str, Callable[[int], Sequence[Optional[int]]]] = {
    "turan": lambda top: (top, None),
    "anti_ramsey": lambda top: (top, *range(top)),
}


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
    nodes and elapsed cover every rung of the climb.  instance names the
    problem, n, r and patterns, and as "below" the value on n - 1 vertices
    that rung n leaned on (edges, or the largest rainbow-free color count,
    -1 when there is none), or None.
    """

    value: Optional[int]
    witness: object
    nodes: int
    elapsed: float
    status: str
    instance: dict


def _coerce_family(patterns: Union[Hypergraph, Family, Iterable[Hypergraph]]) -> Family:
    if isinstance(patterns, Family):  # keeps its r, which an empty family has no member to give
        return patterns
    return make_family([patterns] if isinstance(patterns, Hypergraph) else patterns)


def _copy_tables(n: int, family: Family, deadline: Optional[float] = None) -> Iterator[Optional[tuple]]:
    """Yield the host K_k^r for k = 0..n: (table, masks, most), grown in place.

    Colex order puts K_{k-1}^r's edges first, so rung k appends, once per
    climb, only the edges through m = k - 1: for e_j, masks[j] =
    vertex_mask(e_j), most[j] the most of edges 0..j at one vertex, and
    table[j], listing for each copy of a member whose highest colex rank is
    j the sorted ranks of its other edges.  Such a copy lies in
    K_{max(e_j)+1}, so rung k adds the copies through m.  A member on v
    non-isolated vertices has none before its first fit, m = v - 1, where
    every copy in K_v^r uses all of range(v).  There the member's plan, a
    RainbowEmbedder built on its own v vertices, lists them, one injection
    per copy, with the ranks (a dict of the masks, built for it) as colors
    and canonical's stabilizer_orbits as orbits, and the member keeps what
    this search appended to the rows as its base, each copy a top rank and
    the sorted other ranks (the rows are shared, so not all they hold).
    Past the first fit, a copy through m has exactly one
    vertex set S, and max S = m, so S = C + (m,) for one (v-1)-subset C of
    range(m).  The increasing map from range(v) onto S sends the base onto
    the copies on S, each once, and keeps colex order: with R[i] the rank of
    the image of edge i of K_v^r, a base copy's top edge goes to the image's
    top edge R[top] and its other ranks to R at them, still sorted.  So each
    row holds the copies a search would list, in another order, which no
    veto reads.  Members with more than n non-isolated vertices are
    skipped.  If member a embeds in member b, b vetoes nothing a does not: a
    copy of b that vetoes a color at its top edge j holds an a-copy whose
    edges are present in distinct colors; its top edge is j, as a's veto
    would have refused the value on any earlier top edge, so a's veto fires
    at j too.  Yields None and stops once the clock passes deadline (a
    time.monotonic() value, read at every copy of a first fit, once per
    vertex set S past it, and after, not during, the symmetry setup).
    """
    r = family.r
    binom = [[comb(x, t) for x in range(n)] for t in range(r + 1)]

    def leaf(bits: list[int], seen: int) -> bool:
        top = seen.bit_length() - 1  # the ranks are the bits of seen
        seen ^= 1 << top
        others = []
        while seen:
            low = seen & -seen
            others.append(low.bit_length() - 1)
            seen ^= low
        table[top].append(tuple(others))
        return deadline is not None and time.monotonic() > deadline

    members = [(RainbowEmbedder(len(f.non_isolated), f, stabilizer_orbits), [])
               for f in family.members if len(f.non_isolated) <= n]
    if deadline is not None and time.monotonic() > deadline:
        yield None
        return
    table: list[list[tuple[int, ...]]] = []
    masks, most, at, peak = [], [], [0] * n, 0  # at[v]: the edges so far at v, peak: their most
    yield table, masks, most
    for m in range(n):
        for e in kn_edges(m + 1, r)[len(masks):]:  # the edges through m, in colex order
            for v in e:
                at[v] += 1
                peak = max(peak, at[v])
            masks.append(vertex_mask(e))
            most.append(peak)
            table.append([])
        for em, base in members:
            v = em.n
            if v == m + 1:  # the first fit
                before = [len(row) for row in table]
                rank = {mask: j for j, mask in enumerate(masks)}
                if em._embed(rank.get, leaf)[0] is not None:
                    yield None
                    return
                if v < n:  # the base: what the search appended, a getter per copy
                    base += [(j, _getter(others))
                             for j, row in enumerate(table) for others in row[before[j]:]]
            elif v <= m:
                for rest in combinations(range(m), v - 1):
                    R = _image_ranks((*rest, m), binom)
                    for j, get in base:
                        table[R[j]].append(get(R))
                    if deadline is not None and time.monotonic() > deadline:
                        yield None
                        return
        yield table, masks, most


def _getter(others: Sequence[int]) -> Callable[[list[int]], tuple[int, ...]]:
    """The entries of a list at the indices others, as a tuple (itemgetter
    gives a bare entry for one index and takes no fewer)."""
    if len(others) > 1:
        return itemgetter(*others)
    return lambda ranks: tuple(ranks[o] for o in others)


def _image_ranks(S: Sequence[int], binom: list[list[int]]) -> list[int]:
    """The colex ranks of the images of K_v^r's edges, in colex order, under
    the increasing map from range(v) onto the sorted vertices S, where
    binom[t][x] = C(x, t) for t <= r.  The t-subsets of range(v) come in colex
    order grouped by their top vertex a ascending, each group the first
    C(a, t-1) of the (t-1)-subsets, and an image's rank adds C(S[a], t) to
    that of its (t-1)-subset below S[a]."""
    ranks = list(S)  # C(s, 1) = s
    for t in range(2, len(binom)):
        row, cut = binom[t], binom[t - 1]
        ranks = [y + row[s] for a, s in enumerate(S) for y in ranks[: cut[a]]]
    return ranks


def _vetoed(copies: list[tuple[int, ...]], val: list[Optional[int]], c: int) -> bool:
    """Whether some copy, given by the ranks of its other edges, has all of
    them present in val with pairwise distinct colors other than c."""
    for others in copies:
        seen = 1 << c  # the colors met, as bits
        for o in others:
            x = val[o]
            if x is None or seen >> x & 1:
                break
            seen |= 1 << x
        else:
            return True
    return False


def _bump(counts: list[int], mask: int, d: int) -> int:
    """Add d to counts[v] for every vertex v in mask; return how many there are."""
    size = mask.bit_count()
    while mask:
        counts[(mask & -mask).bit_length() - 1] += d
        mask &= mask - 1
    return size


def _deficit(old: int, mask: int) -> int:
    """The growth of the deficit D when a color whose edges share old goes on edge `mask`."""
    return (old & ~mask).bit_count()


def _raises(slack: list[int], peak: int, mask: int) -> bool:
    """Whether slack is peak at some vertex of mask."""
    while mask:
        if slack[(mask & -mask).bit_length() - 1] == peak:
            return True
        mask &= mask - 1
    return False


def _branch_and_bound(
    n: int,
    r: int,
    host: tuple,
    choices: Callable[[int], Sequence[Optional[int]]],
    leaf: Callable[[list[Optional[int]], int], int],
    below: Optional[int] = None,
    max_nodes: Optional[int] = None,
    deadline: Optional[float] = None,
) -> tuple[str, int]:
    """Depth-first branch and bound over the colex edge list of K_n^r.

    Edge j gets each value of choices(top) in order, where top is the number
    of colors used on edges before j.  A value is None, which leaves the edge
    out, or a color in range(top + 1), where top itself is a fresh color.  The
    order of the values moves only the order of the leaves, so the climb's
    witness, and the node count: every leaf is still one path.  The host is
    (table, masks, most) of K_n^r, as _copy_tables yields it.  A color is
    vetoed when some copy in table[j] has all its other edges present and,
    with the color, pairwise distinct colors; those edges rank below j, so
    this asks whether the decided prefix holds a rainbow copy through edge j.
    A node is one value tried on one edge.  Each leaf goes to leaf(val, c), c
    its color count and val the loop's live list of values in colex order
    (copy it to keep it).  It returns the threshold t for the rest of the
    search, and best = t - 1 (-1 before the first leaf): a value that fits
    gets no subtree when a fresh color on every later edge would still end at
    c <= best, so each leaf has c >= t, and neither this color-count bound nor
    the cuts below drop a leaf with c > best.  At t = 0, with below None or at
    least 0, only the veto and the first-edge rule cut: with the anti-Ramsey
    values and no veto, the nodes are the sum of Bell(j), j = 1..len(edges).

    The loop keeps its place in arrays, not in recursion, so host size is not
    capped by the recursion limit: tops[j] counts the colors before edge j,
    nxt[j] indexes its next value.  A value meets the color-count bound, the
    deficit cap and, once its edge's peak is known, the star cut below in
    O(r), then the veto, and only then is it applied.

    Edge 0 keeps the first value that fits: that value gets no sibling.  This
    is sound when the first value of choices(0) is color 0.  A leaf's color
    count and its rainbow-freeness do not change under relabeling the
    vertices, and K_n^r is edge-transitive, so any leaf that colors some edge
    can be relabeled to color edge 0, with color 0 after renumbering the
    colors by first use.  If color 0 on edge 0 alone completes a copy, then
    so does every single edge, and the next value runs.  The subtree of the
    first value is searched first either way, so a climb that raises t at
    each leaf ends on the same leaf as without the rule.

    below, when given, is at least the best leaf value of the same question
    on n - 1 vertices (-1 when no leaf exists there).  It adds two cuts.
    Take a leaf with c colors, a "left out" edge being no color, and a
    vertex v; let L(v) count the colors whose edges all contain v.  Deleting
    v leaves a leaf on n - 1 vertices: a coloring of K_{n-1}^r with c - L(v)
    colors that still has no rainbow copy, since a copy there is a copy
    here.  So c - L(v) <= below at every v.
    * Deficit cap.  The edges of color c share the vertices common_c, so
      the sum of L(v) is r*c - D, with the deficit D the sum over colors of
      r - |common_c|, and summing c - L(v) <= below over v gives
      (n - r)*c <= room = n*below - D.  common_c only shrinks down a branch,
      so D only grows, and a child with (n - r)*(best + 1) > room has only
      leaves with c <= best.  Only an old color c on edge j adds to D, by
      _deficit(common[c], masks[j]) <= r, the vertices c stops counting at:
      room pays it when the color is applied and gets it back on backtrack,
      and it is read only when room is below bar = (n - r)*(best + 1) + r.
      At the root D = 0: once best reaches n*below // (n - r) no leaf can
      reach t, and the loop stops.  For turan every color is one edge, D
      stays 0 and this is the Katona-Nemetz-Simonovits averaging bound.
    * Star cut.  After edge j is decided, a color counts in a leaf's L(v)
      only if all its edges so far contain v, or if one of the undecided
      edges at v opens it.  So L(v) <= deg - slack[v], where deg =
      C(n - 1, r - 1) counts the edges at v and slack[v] the decided ones
      less the colors whose edges so far all contain v, and a child with
      below + deg - max(slack) <= best has only leaves with c <= best.  For
      turan this is the minimum-degree condition delta >= ex(n) - ex(n-1).
      A fresh color leaves slack as it is (edge j adds an edge and a color
      at each of its vertices), None adds 1 on edge j, and an old color c
      adds 1 on edge j and on the vertices _deficit charges; backtracking
      undoes it.  Each vertex gains at most 1, so max(slack) gains at most 1
      over peak[j], its maximum before edge j, filled when first needed on
      each visit, and _raises reads the gain only when below + deg - peak[j]
      = best + 1, on one mask: the vertices that gain, masks[j] for None and
      masks[j] | common[c] for an old color c.  With at[v] the edges 0..j at
      v, slack <= at, so the cut is tried only if below + deg - most[j] - 1
      <= best: most[j] = max(at).

    The search stops with status "budget_exhausted" at the first node past
    max_nodes, or at the first node at which the clock has passed deadline
    (a time.monotonic() value, read on node 1 and then each time the nodes
    tried plus the copies in their table rows pass _CLOCK_TICKS); otherwise
    the status is "exact".  Returns (status, nodes), the nodes tried.
    """
    table, masks, most = host
    edges = kn_edges(n, r)
    M = len(edges)
    options = [choices(top) for top in range(M + 1)]
    val: list[Optional[int]] = [None] * M  # colex rank -> value of each decided edge

    ladder = below is not None
    cap = M + 1  # no leaf reaches it: no stop
    bar = r  # (n - r)*(best + 1) + r: below it, room may cut a reused color
    if ladder:
        if n > r:
            cap = n * below // (n - r)
        room = n * below  # n*below - D, D the deficit of the colors so far
        deg = comb(n - 1, r - 1) if n else 0  # the edges at each vertex
        star = below + deg - 1  # the star cut is tried once star - most[j] <= best
    common: list[int] = []  # color -> AND of the vertex masks of its edges
    slack = [0] * n  # v -> decided edges at v less the colors whose edges all contain v
    olds = [0] * M  # edge -> its color's AND before it, when it reused one
    tops, nxt = [0] * (M + 1), [0] * (M + 1)  # edge -> colors before it, index of its next value
    peak = [-1] * (M + 1)  # edge -> max(slack) before it, -1 until needed

    nodes = 0
    ticks, late = 0, False  # read the clock once ticks runs out
    best = -1  # the threshold less 1
    status = "exact"
    j = 0 if best < cap else -1
    while j >= 0:
        top = tops[j]
        if j == M:
            best = leaf(val, top) - 1
            bar = (n - r) * (best + 1) + r
            if best >= cap:
                break
            j -= 1
            continue
        opts, i = options[top], nxt[j]
        if i and ladder:  # back from the subtree of val[j]
            c = val[j]
            if c == top:
                common.pop()
            else:
                for v in edges[j]:
                    slack[v] -= 1
                if c is not None:
                    room += _bump(slack, olds[j] & ~common[c], -1)
                    common[c] = olds[j]
        while i < len(opts):
            c = opts[i]
            i += 1
            nodes += 1
            if deadline is not None:
                ticks -= len(table[j]) + 1
                if ticks < 0:
                    ticks = _CLOCK_TICKS
                    late = time.monotonic() > deadline
            if late or (max_nodes is not None and nodes > max_nodes):
                status, j = "budget_exhausted", -1
                break
            val[j] = c
            up = top + (c == top)
            cut = up + M - j - 1 <= best
            if ladder and room < bar and c is not None and c < top and not cut:
                cut = _deficit(common[c], masks[j]) > room - bar + r
            if ladder and not cut and star - most[j] <= best:
                if peak[j] < 0:
                    peak[j] = max(slack)
                gap = below + deg - peak[j] - best  # cut if gap - (the raise) <= 0
                if gap == 1 and c != top:
                    gap -= _raises(slack, peak[j], masks[j] if c is None else masks[j] | common[c])
                cut = gap <= 0
            if cut or c is not None and _vetoed(table[j], val, c):
                continue
            if ladder:
                if c == top:
                    common.append(masks[j])
                else:
                    for v in edges[j]:
                        slack[v] += 1
                    if c is not None:
                        olds[j] = common[c]
                        common[c] &= masks[j]
                        room -= _bump(slack, olds[j] & ~masks[j], 1)
            nxt[j] = i if j else len(opts)
            j += 1
            tops[j], nxt[j], peak[j] = up, 0, -1
            break
        else:
            j -= 1

    return status, nodes


def _solve(
    problem: str, n: int, family: Family, budget: Optional[SearchBudget]
) -> SearchReport:
    """Run one solver: the one path from patterns to a report.

    Checks the input and climbs the ladder k = r..n with the problem's values
    from _VALUES, a fresh color first.  Rung k runs _branch_and_bound on k
    vertices with below set to the value of rung k - 1 and the host K_k^r,
    which _copy_tables grows by one vertex's edges and copies per rung, none
    twice or past the last rung reached.  Its leaf callback keeps each rung's
    best leaf: a leaf handed over is the new best, and sets the threshold one
    above its color count.  A rung below n on which no member fits is not
    searched: every coloring with distinct colors is a leaf, so its value is
    C(k, r).  The budget covers the whole climb: the tables, their setup and
    every rung run against one deadline, start + max_seconds, and each rung
    may try the nodes the rungs before it left of max_nodes, so the report's
    nodes are summed over the rungs.  A rung that runs out, searching or
    listing its copies, ends the run with value None; a run that ends below n
    has no witness for n.  A turan leaf becomes the Hypergraph of its chosen
    edges, already in colex order; an anti_ramsey leaf becomes a Coloring,
    and the value is one more than its color count.  The instance records as
    "below" the value rung n leaned on, or None.
    """
    turan = problem == "turan"
    if n < 0:
        raise ValueError("n must be nonnegative")
    if any(m.num_edges == 0 for m in family.members):
        where = "contained in every graph" if turan else "rainbow in every coloring"
        raise ValueError(f"an edgeless pattern is {where}")
    r = family.r
    budget = budget or SearchBudget()
    max_nodes, secs = budget.max_nodes, budget.max_seconds
    start = time.monotonic()
    deadline = None if secs is None else start + secs
    smallest = min((len(m.non_isolated) for m in family.members), default=n)
    nodes, below, best, values = 0, None, -1, None

    def leaf(val: list[Optional[int]], c: int) -> int:
        nonlocal best, values
        best, values = c, tuple(val)  # the loop hands over only c >= best + 1
        return c + 1

    for k, host in enumerate(_copy_tables(n, family, deadline)):
        if host is None:  # the clock ran out setting up or listing the copies of K_k^r
            status, values = "budget_exhausted", None
            break
        if k < min(r, n):
            continue
        if k < n and k < smallest:
            below = comb(k, r)
            continue
        left = None if max_nodes is None else max_nodes - nodes
        best, values = -1, None
        status, spent = _branch_and_bound(k, r, host, _VALUES[problem], leaf, below, left, deadline)
        nodes += spent
        if status != "exact" or k == n:
            break
        below = best
    if k < n:
        values = None
    if turan:
        chosen = tuple(e for e, c in zip(kn_edges(n, r), values or ()) if c is not None)
        value, witness = best, Hypergraph(n, r, chosen)
    else:
        value = max(best, 0) + 1
        witness = None if values is None else make_coloring(n, r, values)
    if status != "exact":
        value = None
    patterns = [[list(e) for e in m.edges] for m in family.members]
    instance = {
        "problem": problem, "n": n, "r": r, "patterns": patterns,
        "below": below if k == n else None,
    }
    return SearchReport(value, witness, nodes, time.monotonic() - start, status, instance)


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
    list, so each partition of the edge set is visited exactly once.  Each
    edge is tried with a fresh color before the colors already used, so the
    first leaf reached is the greedy one, in which each edge takes a fresh
    color unless that completes a rainbow copy.  A branch dies as soon as the
    colored prefix holds a rainbow copy through its newest edge.  The answer
    is one more than the largest color count of a rainbow-free coloring;
    when no coloring at all is rainbow-free (single edge patterns) the
    answer is 1 and the witness is None.
    """
    return _solve("anti_ramsey", n, make_family([pattern]), budget)


def verify_feasibility(report: SearchReport) -> bool:
    """Re-check a report's witness without the solver's copy table.

    Turan witnesses are re-tested with has_copy, coloring witnesses with
    find_rainbow_copy.  Both share RainbowEmbedder's search with the table
    (order, edge schedule, color test), so a fault there hides a copy from
    both; only the symmetry rule differs, twin orbits with no canonical
    code.  The tests hold that search against a brute-force oracle.  Only feasibility
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
        if not isinstance(host, Hypergraph) or host.n != inst["n"] or host.r != inst["r"]:
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
        if not isinstance(chi, Coloring) or chi.n != inst["n"] or chi.r != inst["r"]:
            return False
        if report.value is not None and chi.num_colors != report.value - 1:
            return False
        return all(find_rainbow_copy(chi, p) is None for p in patterns)
    raise ValueError(f"unknown problem kind {inst['problem']!r}")
