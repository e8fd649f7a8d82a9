"""Small uniform hypergraphs with a fixed edge enumeration order.

Edges are strictly increasing r-tuples over the vertex range 0..n-1, stored in
colexicographic order.  The same colex order indexes the complete host K_n^r
everywhere: coloring vectors, file formats and solver decision sequences all
agree on it.  Every type here is immutable; operations return new objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Hypergraph",
    "Embedding",
    "Family",
    "colex_key",
    "colex_rank",
    "kn_edges",
    "vertex_mask",
    "make_hypergraph",
    "make_family",
    "relabel",
    "remove_vertices",
    "is_independent",
    "independent_sets",
    "has_copy",
]


def colex_key(edge: Sequence[int]) -> tuple[int, ...]:
    """Sort key realising colexicographic order on sorted tuples."""
    return tuple(reversed(edge))


def colex_rank(edge: Sequence[int]) -> int:
    """Position of a sorted r-tuple in the colex enumeration of r-subsets.

    Combinatorial number system: rank = sum_i C(edge[i], i+1) for the edge
    sorted ascending.  Independent of n, so ranks agree across host sizes.
    """
    return sum(comb(v, i + 1) for i, v in enumerate(edge))


@lru_cache(maxsize=None)
def kn_edges(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """All r-subsets of range(n) as sorted tuples, in colex order.

    kn_edges(n, r)[colex_rank(e)] == e for every r-subset e of range(n).
    """
    if n < 0 or r < 0:
        raise ValueError("n and r must be nonnegative")
    return tuple(sorted(itertools.combinations(range(n), r), key=colex_key))


def vertex_mask(edge: Iterable[int]) -> int:
    """The vertex set of an edge as a bitmask with bit v set for vertex v.

    Order-free, so an edge is keyed without sorting its vertices; this is the
    key RainbowEmbedder.find hands to color_at.
    """
    m = 0
    for v in edge:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on the vertex set {0, ..., n-1}.

    Invariants:
      * n >= 0 and r >= 1
      * every edge is a strictly increasing r-tuple inside range(n)
      * edges are pairwise distinct and stored in colex order
    """

    n: int
    r: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"uniformity must be >= 1, got {self.r}")
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        prev_key: Optional[tuple[int, ...]] = None
        for e in self.edges:
            if len(e) != self.r:
                raise ValueError(f"edge {e} has arity {len(e)}, expected {self.r}")
            if any(v < 0 or v >= self.n for v in e):
                raise ValueError(f"edge {e} leaves vertex range 0..{self.n - 1}")
            if any(a >= b for a, b in zip(e, e[1:])):
                raise ValueError(f"edge {e} is not strictly increasing")
            key = colex_key(e)
            if prev_key is not None and key <= prev_key:
                raise ValueError("edges out of colex order or duplicated")
            prev_key = key

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        d = [0] * self.n
        for e in self.edges:
            for v in e:
                d[v] += 1
        return tuple(d)

    @cached_property
    def non_isolated(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.degrees[v] > 0)

    @cached_property
    def incident(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per-vertex tuple of incident edges."""
        inc: list[list[tuple[int, ...]]] = [[] for _ in range(self.n)]
        for e in self.edges:
            for v in e:
                inc[v].append(e)
        return tuple(tuple(x) for x in inc)

    @cached_property
    def twins(self) -> tuple[int, ...]:
        """twins[v] is the least w whose swap with v maps edge_set onto itself.

        Being twins is an equivalence relation: (v x) = (v w)(w x)(v w), so
        transpositions of twins compose to transpositions of twins, and
        twins[v] names the least vertex of v's class.  The swap fixes every
        edge holding both or neither of v and w.  When deg v == deg w and it
        maps each edge through v alone to an edge, it sends those edges
        injectively onto the equally many edges through w alone, and, being
        an involution, those back; so v is tested against the least vertex
        of each earlier class of its degree, on incident[v] only.
        """
        masks = {vertex_mask(e) for e in self.edges}
        out = list(range(self.n))
        reps: dict[int, list[int]] = {}  # least vertex of each class, by degree
        for v in range(self.n):
            through_v = [vertex_mask(e) for e in self.incident[v]]
            same_degree = reps.setdefault(self.degrees[v], [])
            for w in same_degree:
                swap = 1 << v | 1 << w
                if all(m >> w & 1 or m ^ swap in masks for m in through_v):
                    out[v] = w
                    break
            else:
                same_degree.append(v)
        return tuple(out)

    def __repr__(self) -> str:  # compact, eval-unfriendly on purpose
        return f"Hypergraph(n={self.n}, r={self.r}, m={len(self.edges)})"


def make_hypergraph(n: int, r: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Validating constructor; sorts each edge and the edge list.

    Rejects wrong arity, out-of-range vertices, a repeated vertex inside an
    edge, and duplicate edges.
    """
    normalized: list[tuple[int, ...]] = []
    for raw in edges:
        e = tuple(sorted(raw))
        if len(set(e)) != len(e):
            raise ValueError(f"edge {tuple(raw)} repeats a vertex")
        normalized.append(e)
    normalized.sort(key=colex_key)
    for a, b in zip(normalized, normalized[1:]):
        if a == b:
            raise ValueError(f"duplicate edge {a}")
    return Hypergraph(n=n, r=r, edges=tuple(normalized))


def relabel(h: Hypergraph, perm: Sequence[int]) -> Hypergraph:
    """Rename vertices: vertex v becomes perm[v].  perm must be a bijection."""
    if len(perm) != h.n or sorted(perm) != list(range(h.n)):
        raise ValueError("perm must be a permutation of range(n)")
    return make_hypergraph(h.n, h.r, [[perm[v] for v in e] for e in h.edges])


def remove_vertices(h: Hypergraph, vs: Iterable[int]) -> Hypergraph:
    """Delete the given vertices and every incident edge, then compact labels.

    Remaining vertices keep their relative order.
    """
    drop = set(vs)
    if any(v < 0 or v >= h.n for v in drop):
        raise ValueError("vertex out of range")
    new_id = {}
    nxt = 0
    for v in range(h.n):
        if v not in drop:
            new_id[v] = nxt
            nxt += 1
    kept = [e for e in h.edges if not drop.intersection(e)]
    return make_hypergraph(nxt, h.r, [[new_id[v] for v in e] for e in kept])


def is_independent(h: Hypergraph, vertices: Iterable[int], mode: str = "weak") -> bool:
    """Whether the set is independent.

    weak: no edge is fully contained in the set.
    strong: no edge meets the set in two or more vertices.
    The two notions coincide for r = 2.
    """
    s = set(vertices)
    if any(v < 0 or v >= h.n for v in s):
        raise ValueError("vertex out of range")
    check_mode(mode)
    if mode == "weak":
        return not any(s.issuperset(e) for e in h.edges)
    return not any(len(s.intersection(e)) >= 2 for e in h.edges)


def check_mode(mode: str) -> None:
    """Reject an independence mode other than weak and strong."""
    if mode not in ("weak", "strong"):
        raise ValueError(f"unknown independence mode {mode!r}")


def _extends_independent(
    h: Hypergraph, in_set: Sequence[bool], v: int, mode: str
) -> bool:
    """Whether adding v, not in it, to an independent set of the given mode
    (in_set[u] marks its vertices) keeps it independent.  Only the edges
    through v can break it: weak, when v fills one; strong, when one already
    meets the set, as it then meets the set and v in two vertices."""
    if mode == "weak":
        return not any(all(in_set[u] or u == v for u in e) for e in h.incident[v])
    return not any(any(in_set[u] for u in e) for e in h.incident[v])


def independent_sets(h: Hypergraph, mode: str = "weak") -> list[tuple[int, ...]]:
    """All independent sets as sorted tuples, the empty set included.

    Both notions are closed under taking subsets, so a depth-first extension
    over vertices in increasing order enumerates each set exactly once.
    Output order is lexicographic.
    """
    check_mode(mode)
    out: list[tuple[int, ...]] = []
    current: list[int] = []
    in_set = [False] * h.n

    def rec(start: int) -> None:
        out.append(tuple(current))
        for v in range(start, h.n):
            if _extends_independent(h, in_set, v, mode):
                current.append(v)
                in_set[v] = True
                rec(v + 1)
                current.pop()
                in_set[v] = False

    rec(0)
    return out


@dataclass(frozen=True)
class Embedding:
    """Injective map from the vertices of a pattern F into a host.

    images[u] is the host vertex for pattern vertex u, or None when u is not
    part of the map (isolated pattern vertices by default).
    """

    images: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        hit = [v for v in self.images if v is not None]
        if len(set(hit)) != len(hit):
            raise ValueError("embedding is not injective")

    def image_edge(self, e: Sequence[int]) -> tuple[int, ...]:
        return tuple(sorted(self.images[u] for u in e))  # type: ignore[misc]

    def image_edges(self, f: Hypergraph) -> tuple[tuple[int, ...], ...]:
        return tuple(self.image_edge(e) for e in f.edges)


def has_copy(f: Hypergraph, h: Hypergraph) -> bool:
    """Whether h contains at least one copy of f.

    A copy is a rainbow copy when every host edge has its own color, so this
    is a free RainbowEmbedder search that reads each present edge's index in
    h.edges as its color, keyed by vertex mask.
    """
    from .coloring import RainbowEmbedder  # coloring imports this module

    if f.r != h.r:
        raise ValueError(f"uniformity mismatch: pattern r={f.r}, host r={h.r}")
    present = {vertex_mask(e): i for i, e in enumerate(h.edges)}
    emb, _ = RainbowEmbedder(h.n, f).find(present.get)
    return emb is not None


@dataclass(frozen=True)
class Family:
    """A finite collection of hypergraphs sharing one uniformity."""

    r: int
    members: tuple[Hypergraph, ...]

    def __post_init__(self) -> None:
        for m in self.members:
            if m.r != self.r:
                raise ValueError(
                    f"family uniformity {self.r} but member has r={m.r}"
                )

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Hypergraph]:
        return iter(self.members)


def make_family(members: Iterable[Hypergraph], *, r: Optional[int] = None) -> Family:
    ms = tuple(members)
    if r is None:
        if not ms:
            raise ValueError("empty family needs an explicit uniformity")
        r = ms[0].r
    return Family(r=r, members=ms)
