"""Builders for the hypergraphs and families the solvers consume.

Covers uniformity-raising expansions, vertex and set splittings with their
deduplicated splitting family, single-edge and pendant-edge deletion families,
balanced complete multipartite (Turan) hypergraphs, blowups, and the blowup
variants with one extra pattern planted inside a part.

Fresh-vertex conventions (fixed, tested):
  * expansion: new vertices are appended after the originals, one block per
    edge, following the stored colex edge order;
  * split_vertex(F, u): u is removed, surviving vertices keep their relative
    order (labels above u shift down one), and one fresh leaf vertex per link
    edge is appended following the colex order of the link.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .canonical import distinct_classes, orbit_representatives
from .hypergraph import (
    Family,
    Hypergraph,
    _extends_independent,
    _independent_sets,
    colex_key,
    is_independent,
    make_hypergraph,
    remove_vertices,
)

__all__ = [
    "expansion",
    "expansion_family",
    "blowup",
    "split_vertex",
    "split_set",
    "splitting_family",
    "minus_family",
    "pendant_minus_family",
    "TuranPartition",
    "turan_partition",
    "turan_hypergraph",
    "turan_count",
    "special_blowup_graph",
    "complete_graph",
    "complete_hypergraph",
    "path_graph",
    "cycle_graph",
    "single_edge",
    "named_hypergraph",
    "NAMED_DESCRIPTORS",
]


def expansion(f: Hypergraph, r: int) -> Hypergraph:
    """Raise a k-graph to uniformity r by padding every edge with fresh vertices.

    Each edge receives its own r-k new vertices, so distinct edges of the
    result intersect only inside the original vertex set.  Requires r > f.r.
    """
    k = f.r
    if r <= k:
        raise ValueError(f"expansion needs r > {k}, got r={r}")
    pad = r - k
    edges = []
    nxt = f.n
    for e in f.edges:
        edges.append(tuple(e) + tuple(range(nxt, nxt + pad)))
        nxt += pad
    return make_hypergraph(nxt, r, edges)


def expansion_family(fam: Family, r: int) -> Family:
    """Expand every member.

    Non-isomorphic k-graphs have non-isomorphic expansions: the original
    vertices are recoverable as the vertices of degree >= 2 plus the
    at-most-one original vertex per edge not covered that way, so a
    deduplicated family stays deduplicated.
    """
    return Family(r=r, members=tuple(expansion(m, r) for m in fam.members))


def blowup(f: Hypergraph, t: int) -> Hypergraph:
    """Replace vertex i by the block {t*i, ..., t*i+t-1} and every edge by all
    t^r of its transversals.  |edges| = |F| * t^r."""
    if t < 1:
        raise ValueError(f"blowup factor must be >= 1, got {t}")
    edges = []
    for e in f.edges:
        blocks = [range(t * v, t * v + t) for v in e]
        edges.extend(itertools.product(*blocks))
    return make_hypergraph(f.n * t, f.r, edges)


def split_vertex(f: Hypergraph, u: int) -> Hypergraph:
    """Split u: every edge through u loses u and gains its own fresh vertex;
    edges avoiding u survive unchanged.  Edge count is preserved.

    Splitting an isolated vertex just deletes it.
    """
    if u < 0 or u >= f.n:
        raise ValueError(f"vertex {u} out of range")
    n, edges = _split(f.n, f.edges, u)
    return make_hypergraph(n, f.r, edges)


def _split(
    n: int, edges: Sequence[tuple[int, ...]], u: int
) -> tuple[int, list[tuple[int, ...]]]:
    """split_vertex on plain edges: given the sorted edge tuples of a graph
    on range(n), in any order, the vertex count and edges of the split of
    u, the list in no set order.  The edges through u take their fresh
    vertices in colex order, as split_vertex does; labels above u shift
    down one and the fresh ones are the highest, so every edge stays
    sorted."""
    out = [tuple(v - (v > u) for v in e) for e in edges if u not in e]
    nxt = n - 1
    for e in sorted((e for e in edges if u in e), key=colex_key):
        out.append(tuple(v - (v > u) for v in e if v != u) + (nxt,))
        nxt += 1
    return nxt, out


def split_set(f: Hypergraph, vertices: Iterable[int], mode: str = "weak") -> Hypergraph:
    """Split every vertex of an independent set, one after another.

    The set must be independent (mode selects the notion; weak by default).
    Fresh vertices introduced by earlier splits are never split again, and
    the outcome does not depend on the processing order up to isomorphism;
    internally the vertices are processed in descending label order, which
    keeps the labels of the not-yet-split ones stable.  The splits run on
    plain edges, each as split_vertex would, and one Hypergraph is built at
    the end.
    """
    vs = sorted(set(vertices), reverse=True)
    if not is_independent(f, vs, mode):
        raise ValueError(f"{sorted(vs)} is not {mode}ly independent")
    n, edges = f.n, f.edges
    for u in vs:
        n, edges = _split(n, edges, u)
    return make_hypergraph(n, f.r, edges)


def splitting_family(f: Hypergraph, mode: str = "weak") -> Family:
    """All splittings of f over independent sets, one per isomorphism class.

    The empty set contributes f itself.  Members are the splits of the
    lex-first independent set of each class, in lex order of those sets.

    Only one set per core is split, where the core of a set is its vertices
    whose degree is not 1.  Splitting a degree-1 vertex swaps it for one
    fresh degree-1 vertex in the same edge, which is an isomorphism, and its
    degree stays 1 while other vertices are split; both independence notions
    are closed under subsets.  So split_set(f, S) is isomorphic to
    split_set(f, core of S).  Isolated vertices stay in the core: splitting
    one deletes it.  The lex-first set whose split lands in a class has a
    core no earlier set had (an earlier set with that core would land in the
    class too), so it is the one set kept for its core.

    The cores are exactly the independent sets of vertices of degree not 1,
    listed by the shared search, _independent_sets, over those vertices (the
    hubs) alone.  The lex-first set with core C holds no degree-1 vertex
    above max(C), as dropping it gives a proper prefix; below max(C), a
    degree-1 vertex v that keeps C, the vertices chosen so far and v
    independent makes the set smaller at v's position, so the greedy pass in
    increasing order builds it.  Both passes add one vertex at a time to an
    independent set, so each tests the vertex on its own edges alone.  The
    cores are then ordered by these sets, so the padding vertices of an
    expansion never multiply the work.

    The cores then pass through orbit_representatives, which drops a core in
    the orbit of an earlier kept one under automorphisms of f.  An
    automorphism g maps independent sets to independent sets of the same
    notion and keeps degrees, so it maps the sets with core C onto those
    with core g(C), and split_set(f, g(C)) is isomorphic to split_set(f, C).
    A dropped core therefore lands in the class of an earlier one, so it is
    never the first of its class, and the first of each class survives.
    This holds for any generators of a subgroup of Aut(f).  distinct_classes
    still runs, as different orbits can give isomorphic splits, and the
    members are those the unreduced dedupe would keep, in the same order.
    """
    hubs = [v for v in range(f.n) if f.degrees[v] != 1]

    def first_set(core: tuple[int, ...]) -> tuple[int, ...]:
        s, in_set = list(core), [False] * f.n
        for v in s:
            in_set[v] = True
        for v in range(core[-1] if core else 0):
            if f.degrees[v] == 1 and _extends_independent(f, in_set, v, mode):
                s.append(v)
                in_set[v] = True
        return tuple(sorted(s))

    cores = dict(sorted(((c, first_set(c)) for c in _independent_sets(f, mode, hubs)),
                        key=lambda cs: cs[1]))
    splits = (split_set(f, cores[c], mode) for c in orbit_representatives(f, cores))
    return Family(r=f.r, members=distinct_classes(splits))


def _deletion_family(f: Hypergraph, removable: Sequence[tuple[int, ...]]) -> Family:
    """One member per isomorphism class of f less one removable edge, the
    first in the order of removable, isolated vertices dropped.

    The edges pass through orbit_representatives first, which drops an edge
    in the orbit of an earlier kept one under automorphisms of f.  An
    automorphism g maps f - e onto f - g(e), so a dropped edge's deletion
    lies in the class of an earlier one and is never the first of its class;
    the first of each class survives, under any generators of a subgroup of
    Aut(f).  distinct_classes still runs, as edges in different orbits can
    give isomorphic deletions, and the members are those it would keep from
    every removable edge, in the same order.
    """
    def delete(e: tuple[int, ...]) -> Hypergraph:
        g = Hypergraph(f.n, f.r, tuple(x for x in f.edges if x != e))
        return remove_vertices(g, [v for v in range(g.n) if g.degrees[v] == 0])

    edges = orbit_representatives(f, removable)
    return Family(r=f.r, members=distinct_classes(map(delete, edges)))


def minus_family(f: Hypergraph) -> Family:
    """One member per isomorphism class of f with a single edge deleted.

    Vertices left isolated by the deletion are dropped, as ex(n, F_-) ignores
    them and so does every solver here.
    A graph with no edges yields the empty family; a single-edge graph yields
    the family whose one member is the empty hypergraph.
    """
    return _deletion_family(f, f.edges)


def pendant_minus_family(f: Hypergraph, k: int) -> Family:
    """Deletions of k-pendant edges only, isolated vertices dropped.

    An edge is k-pendant when it owns at least k private vertices, vertices
    no other edge touches.  Defined for 1 <= k < r.  The family is empty when
    no edge qualifies.
    """
    if not 1 <= k < f.r:
        raise ValueError(f"k must satisfy 1 <= k < r={f.r}, got {k}")
    removable = []
    for e in f.edges:
        private = sum(1 for v in e if f.degrees[v] == 1)
        if private >= k:
            removable.append(e)
    return _deletion_family(f, removable)


@dataclass(frozen=True)
class TuranPartition:
    """Balanced partition into contiguous ranges, larger classes first."""

    n: int
    ell: int
    sizes: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]

    @property
    def part_of(self) -> tuple[int, ...]:
        out = [0] * self.n
        for i, p in enumerate(self.parts):
            for v in p:
                out[v] = i
        return tuple(out)


def turan_partition(n: int, ell: int) -> TuranPartition:
    if ell < 1 or n < 0:
        raise ValueError("need ell >= 1 and n >= 0")
    q, s = divmod(n, ell)
    sizes = tuple([q + 1] * s + [q] * (ell - s))
    parts = []
    start = 0
    for size in sizes:
        parts.append(tuple(range(start, start + size)))
        start += size
    return TuranPartition(n=n, ell=ell, sizes=sizes, parts=tuple(parts))


def turan_hypergraph(n: int, ell: int, r: int) -> Hypergraph:
    """Complete r-partite-style host: all r-sets meeting each class at most once.

    Classes come from turan_partition.  For ell < r the result has no edges.
    """
    part = turan_partition(n, ell)
    edges = []
    for chosen in itertools.combinations(range(ell), r):
        edges.extend(itertools.product(*(part.parts[i] for i in chosen)))
    return make_hypergraph(n, r, edges)


def turan_count(n: int, ell: int, r: int) -> int:
    """Edge count of turan_hypergraph via the product-sum formula.

    Kept independent of the constructor on purpose; tests compare the two.
    """
    part = turan_partition(n, ell)
    total = 0
    for chosen in itertools.combinations(range(ell), r):
        prod = 1
        for i in chosen:
            prod *= part.sizes[i]
        total += prod
    return total


_SPECIAL_MIN_T = {"alpha": 3, "beta": 4, "gamma": 2, "plus": 2}
_SPECIAL_EXTRA = {
    # added 2-edges, expressed inside the first one or two blocks
    "alpha": lambda t: [(0, 1), (1, 2)],
    "beta": lambda t: [(0, 1), (2, 3)],
    "gamma": lambda t: [(0, 1), (t, t + 1)],
    "plus": lambda t: [(0, 1)],
}


def special_blowup_graph(kind: str, ell: int, t: int) -> Hypergraph:
    """Blowup of the complete graph K_ell with one extra pattern in a part.

    kind selects the pattern planted on the lowest-labeled vertices:
      alpha: a two-edge path inside part 1
      beta:  two disjoint edges inside part 1
      gamma: one edge inside part 1 and one inside part 2
      plus:  one edge inside part 1

    Parts are the blowup blocks {t*i, ..., t*i+t-1}.  alpha/beta/gamma are
    normally used with t >= 4; smaller t is accepted whenever the pattern
    mechanically fits, with a warning.
    """
    if kind not in _SPECIAL_MIN_T:
        raise ValueError(f"unknown kind {kind!r}; expected alpha/beta/gamma/plus")
    if ell < 2:
        raise ValueError(f"need ell >= 2, got {ell}")
    need = _SPECIAL_MIN_T[kind]
    if t < need:
        raise ValueError(
            f"part size {t} too small for pattern {kind!r} (needs t >= {need})"
        )
    if kind in ("alpha", "beta", "gamma") and t < 4:
        warnings.warn(
            f"special_blowup_graph({kind!r}) with t={t} < 4 leaves the usual "
            f"size assumption; construction proceeds",
            UserWarning,
            stacklevel=2,
        )
    base = blowup(complete_graph(ell), t)
    extra = _SPECIAL_EXTRA[kind](t)
    return make_hypergraph(base.n, 2, list(base.edges) + extra)


def complete_graph(m: int) -> Hypergraph:
    return make_hypergraph(m, 2, itertools.combinations(range(m), 2))


def complete_hypergraph(n: int, r: int) -> Hypergraph:
    return make_hypergraph(n, r, itertools.combinations(range(n), r))


def path_graph(num_edges: int) -> Hypergraph:
    """Path with the given number of edges on num_edges+1 vertices."""
    if num_edges < 1:
        raise ValueError("path needs at least one edge")
    return make_hypergraph(num_edges + 1, 2, [(i, i + 1) for i in range(num_edges)])


def cycle_graph(m: int) -> Hypergraph:
    if m < 3:
        raise ValueError("cycle needs at least three vertices")
    return make_hypergraph(m, 2, [(i, (i + 1) % m) for i in range(m)])


def single_edge(r: int = 2) -> Hypergraph:
    return make_hypergraph(r, r, [tuple(range(r))])


#: CLI-facing descriptors.  Note the historical naming wrinkle, kept as is:
#: P3 is the path on 3 vertices (2 edges) while P4 is the path with 4 edges
#: (5 vertices).  Both are documented in the CLI help.
NAMED_DESCRIPTORS = (
    "K<m>",
    "C<m>",
    "P3",
    "P4",
    "single-edge",
    "triple",
)


def named_hypergraph(name: str) -> Hypergraph:
    """Resolve an inline descriptor such as K3, K4, P3, P4, C6, single-edge,
    triple."""
    s = name.strip()
    if s == "P3":
        return path_graph(2)
    if s == "P4":
        return path_graph(4)
    if s == "single-edge":
        return single_edge(2)
    if s == "triple":
        return single_edge(3)
    if s.startswith("K") and s[1:].isdigit():
        m = int(s[1:])
        if m < 2:
            raise ValueError("K<m> needs m >= 2")
        return complete_graph(m)
    if s.startswith("C") and s[1:].isdigit():
        return cycle_graph(int(s[1:]))
    raise ValueError(
        f"unknown descriptor {name!r}; known: {', '.join(NAMED_DESCRIPTORS)}"
    )
