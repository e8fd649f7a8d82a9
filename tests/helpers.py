"""Independent brute-force oracles.

Everything here is deliberately naive: permutations instead of backtracking,
full subset or partition enumeration instead of branch and bound.  The test
suite trusts these on tiny instances and measures the real implementations
against them.  copy_host and copy_table are the one exception: they run
the solver's own host builder, for tests that drive _branch_and_bound
directly with a leaf callback of their own (the climb's, one that keeps a
fixed threshold, or one at threshold 0 that no bound can cut), and
expansion_automorphisms builds its group from the base graph's brute-force
one, as permuting an expansion's vertices takes too long.  naive_refine is the canonical search's refinement
with every cell signed in every round, with refine_naive to switch it in,
and naive_canonical_edges the canonical form from every leaf of the search
tree, and vetoed_by_sets the veto with its seen colors in a set.
twins_off, orbits_off and invariant_off switch the twin rules, the
families' orbit rule and distinct_classes' invariant buckets off, and
stabilizer_orbits_on gives the free embedder the copy table's orbits, for
differential tests.
"""

from __future__ import annotations

import itertools
from collections import Counter
from contextlib import contextmanager
from math import comb
from typing import Iterator, Optional, Sequence

import pytest

from arl import canonical
from arl.coloring import Coloring, RainbowEmbedder, make_coloring
from arl.constructions import expansion
from arl.hypergraph import Hypergraph, colex_rank, kn_edges, make_family, make_hypergraph, relabel
from arl.search import _copy_tables


def naive_embeddings(f: Hypergraph, h: Hypergraph) -> list[dict[int, int]]:
    """All injective maps of f's non-isolated vertices that send edges to edges."""
    verts = f.non_isolated
    out = []
    for choice in itertools.permutations(range(h.n), len(verts)):
        phi = dict(zip(verts, choice))
        if all(
            tuple(sorted(phi[v] for v in e)) in h.edge_set for e in f.edges
        ):
            out.append(phi)
    return out


def naive_copy_rows(n: int, members: Sequence[Hypergraph]) -> list[Counter]:
    """Per colex rank j of K_n^r, the multiset of the sorted other ranks of
    each member's copies whose top rank is j: a copy is one image edge set
    of the member's naive embeddings into K_n^r, once per member."""
    r = members[0].r
    host = make_hypergraph(n, r, kn_edges(n, r))
    rows = [Counter() for _ in host.edges]
    for f in members:
        copies = {
            tuple(sorted(colex_rank(sorted(phi[v] for v in e)) for e in f.edges))
            for phi in naive_embeddings(f, host)
        }
        for *others, top in copies:
            rows[top][tuple(others)] += 1
    return rows


def naive_has_copy(f: Hypergraph, h: Hypergraph) -> bool:
    if f.num_edges == 0:
        return True
    return bool(naive_embeddings(f, h))


def naive_has_rainbow(chi: Coloring, f: Hypergraph) -> bool:
    host_edges = set(kn_edges(chi.n, chi.r))
    verts = f.non_isolated
    if f.num_edges == 0:
        return True
    for choice in itertools.permutations(range(chi.n), len(verts)):
        phi = dict(zip(verts, choice))
        imgs = [tuple(sorted(phi[v] for v in e)) for e in f.edges]
        if any(img not in host_edges for img in imgs):
            continue
        cols = [chi.colors[colex_rank(img)] for img in imgs]
        if len(set(cols)) == len(cols):
            return True
    return False


def naive_has_anchored_rainbow(
    n: int, f: Hypergraph, colors: Sequence[Optional[int]], anchor: Sequence[int]
) -> bool:
    """Whether some rainbow copy of f in K_n^r has the anchor among its image
    edges.  colors is indexed by colex rank; None marks an absent edge."""
    anchor = tuple(sorted(anchor))
    verts = f.non_isolated
    for choice in itertools.permutations(range(n), len(verts)):
        phi = dict(zip(verts, choice))
        imgs = [tuple(sorted(phi[v] for v in e)) for e in f.edges]
        if anchor not in imgs:
            continue
        cols = [colors[colex_rank(img)] for img in imgs]
        if None not in cols and len(set(cols)) == len(cols):
            return True
    return False


def naive_placement_order(f: Hypergraph) -> list[int]:
    """RainbowEmbedder's placement order by its rule, recounted at every step:
    next the vertex with the most edges whose other vertices are all placed,
    then the most edges that meet a placed vertex, the highest degree and the
    least label."""
    order: list[int] = []
    placed: set[int] = set()
    remaining = list(f.non_isolated)

    def rank(v: int) -> tuple[int, int, int, int]:
        meets = [len(placed.intersection(e)) for e in f.incident[v]]
        return (meets.count(f.r - 1), sum(map(bool, meets)), f.degrees[v], -v)

    while remaining:
        nxt = max(remaining, key=rank)
        order.append(nxt)
        placed.add(nxt)
        remaining.remove(nxt)
    return order


def copy_host(n: int, patterns: Sequence[Hypergraph]) -> tuple:
    """The solver's host K_n^r for the patterns, (table, masks, most), the
    last that _copy_tables yields."""
    *_, host = _copy_tables(n, make_family(list(patterns)))
    return host


def copy_table(n: int, patterns: Sequence[Hypergraph]) -> list[list[tuple[int, ...]]]:
    """The solver's copy table of K_n^r for the patterns."""
    return copy_host(n, patterns)[0]


def vetoed_by_sets(copies: Sequence[tuple[int, ...]], val: Sequence[Optional[int]], c: int) -> bool:
    """Whether some copy, given by the ranks of its other edges, has all of
    them present in val with pairwise distinct colors other than c; the
    colors met are kept in a set."""
    for others in copies:
        colors = [val[o] for o in others]
        if None not in colors and len({c, *colors}) == len(colors) + 1:
            return True
    return False


def brute_automorphisms(h: Hypergraph) -> set[tuple[int, ...]]:
    """Every vertex permutation p of h (p[v] the image of v) that maps edges
    to edges."""
    return {
        p
        for p in itertools.permutations(range(h.n))
        if all(tuple(sorted(p[v] for v in e)) in h.edge_set for e in h.edges)
    }


def expansion_automorphisms(f: Hypergraph, r: int) -> set[tuple[int, ...]]:
    """Every automorphism of expansion(f, r), built from brute_automorphisms(f)
    rather than by permuting the expansion's many vertices.

    Each automorphism g of f lifts: it sends the padding of edge e, in order,
    to that of g(e).  The group is the lifts composed with the permutations
    inside each class of brute-force twins.  An automorphism maps the
    degree-1 vertices of an edge, which are twins, onto those of its image;
    permuting them there so that f's vertices go to f's vertices leaves an
    automorphism of f on them, and its lift differs from the whole map only
    by permutations of padding inside edges, which are twins too.
    """
    h = expansion(f, r)
    pad = r - f.r
    index = {e: i for i, e in enumerate(f.edges)}
    lifts = []
    for g in brute_automorphisms(f):
        lift = list(g)
        for e in f.edges:
            j = f.n + index[tuple(sorted(g[v] for v in e))] * pad
            lift += range(j, j + pad)
        lifts.append(lift)
    classes: list[list[int]] = []
    for v in range(h.n):
        for c in classes:
            swap = list(range(h.n))
            swap[v], swap[c[0]] = c[0], v
            if all(tuple(sorted(swap[u] for u in e)) in h.edge_set for e in h.edges):
                c.append(v)
                break
        else:
            classes.append([v])
    out = set()
    for images in itertools.product(*(itertools.permutations(c) for c in classes)):
        twin = list(range(h.n))
        for c, image in zip(classes, images):
            for v, w in zip(c, image):
                twin[v] = w
        out |= {tuple(twin[w] for w in lift) for lift in lifts}
    return out


def brute_stabilizer_orbits(
    group: set[tuple[int, ...]], order: Sequence[int]
) -> tuple[frozenset[int], ...]:
    """Per p, the images of order[p] under the members of group that fix
    order[:p]."""
    out = []
    for v in order:
        out.append(frozenset(g[v] for g in group))
        group = {g for g in group if g[v] == v}
    return tuple(out)


def naive_refine(h: Hypergraph, cells: list[list[int]]) -> list[list[int]]:
    """The stable refinement of cells, every cell signed in every round: a
    round splits each cell by its vertices' sorted tuples of the sorted cell
    indices of each incident edge's other endpoints, groups in tuple order,
    until a round splits nothing."""
    while True:
        idx = [0] * h.n
        for i, cell in enumerate(cells):
            for v in cell:
                idx[v] = i
        new_cells: list[list[int]] = []
        for cell in cells:
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                sig = sorted(tuple(sorted(idx[u] for u in e if u != v)) for e in h.incident[v])
                groups.setdefault(tuple(sig), []).append(v)
            new_cells += [sorted(groups[key]) for key in sorted(groups)]
        if len(new_cells) == len(cells):
            return new_cells
        cells = new_cells


def naive_canonical_edges(h: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """The edges of h's canonical form by the whole search tree: from the
    naive refinement of one cell, individualize each vertex of the first
    cell of two or more in turn and refine, down to the partitions into
    singletons; each labels cell i's vertex i, and the form is the labeling
    whose sorted colex ranks are least."""
    best = None

    def rec(cells: list[list[int]]) -> None:
        nonlocal best
        i = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if i is None:
            lab = [0] * h.n
            for j, (v,) in enumerate(cells):
                lab[v] = j
            g = relabel(h, lab)
            if best is None or [colex_rank(e) for e in g.edges] < [colex_rank(e) for e in best]:
                best = g.edges
            return
        for v in cells[i]:
            rest = [u for u in cells[i] if u != v]
            rec(naive_refine(h, cells[:i] + [[v], rest] + cells[i + 1:]))

    rec(naive_refine(h, [list(range(h.n))]))
    return best if best is not None else ()


@contextmanager
def refine_naive() -> Iterator[None]:
    """Switch the canonical search's refinement to naive_refine: inside, it
    signs every cell in every round, whatever vertices it is told moved."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canonical, "_refine", lambda h, cells, moved=None: naive_refine(h, cells))
        yield


@contextmanager
def twins_off() -> Iterator[None]:
    """Switch off both twin rules, the canonical search's and the free
    embedder's: inside, every vertex is its own only twin."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Hypergraph, "twins", property(lambda h: tuple(range(h.n))))
        yield


@contextmanager
def stabilizer_orbits_on() -> Iterator[None]:
    """Give the free embedder the copy table's coset constraints: inside,
    RainbowEmbedder takes its orbits from canonical.stabilizer_orbits, all of
    Aut(f), in place of the twin classes."""
    init = RainbowEmbedder.__init__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RainbowEmbedder, "__init__",
                   lambda self, n, f: init(self, n, f, canonical.stabilizer_orbits))
        yield


@contextmanager
def orbits_off() -> Iterator[None]:
    """Switch off the orbit rule of the splitting and deletion families:
    inside, automorphism_generators finds no generators, so every candidate
    is its own orbit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canonical, "automorphism_generators", lambda h: [])
        yield


@contextmanager
def invariant_off() -> Iterator[None]:
    """Switch off the invariant buckets of distinct_classes: inside, every
    graph has the same invariant, so every graph after the first is keyed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canonical, "_invariant", lambda h: ())
        yield


def brute_ex(n: int, patterns: Sequence[Hypergraph], r: int) -> int:
    """Maximum pattern-free edge count by full subset enumeration."""
    pool = kn_edges(n, r)
    best = -1
    for mask in range(1 << len(pool)):
        edges = [e for i, e in enumerate(pool) if mask >> i & 1]
        h = make_hypergraph(n, r, edges)
        if any(naive_has_copy(p, h) for p in patterns):
            continue
        best = max(best, len(edges))
    return best


def set_partitions(m: int) -> Iterator[list[int]]:
    """All restricted-growth strings of length m."""

    def rec(prefix: list[int], top: int) -> Iterator[list[int]]:
        if len(prefix) == m:
            yield list(prefix)
            return
        for c in range(top + 1):
            prefix.append(c)
            yield from rec(prefix, max(top, c + 1))
            prefix.pop()

    if m == 0:
        yield []
        return
    yield from rec([], 0)


def brute_ar(n: int, f: Hypergraph) -> int:
    """One plus the max color count over rainbow-free colorings, by full
    partition enumeration.  Only sane for C(n,r) <= 8 or so."""
    M = comb(n, f.r)
    best = 0
    for rgs in set_partitions(M):
        chi = make_coloring(n, f.r, rgs)
        if not naive_has_rainbow(chi, f):
            best = max(best, chi.num_colors)
    return best + 1
