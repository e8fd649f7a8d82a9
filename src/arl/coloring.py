"""Edge colorings of the complete host K_n^r and rainbow-copy detection.

A coloring assigns one color id to every r-subset of range(n), indexed by
colex rank.  Color ids are contiguous from 0 and every id occurs: surjectivity
is intrinsic, so "number of colors" always means num_colors.

A rainbow copy of a pattern F is an embedding of F's non-isolated vertices
into the host such that the image edges carry pairwise distinct colors.  The
detector is an exhaustive backtracking search; running out of budget raises
BudgetExhausted rather than ever reporting a false "no copy".  It reads
colors through a color_at callback keyed by an image edge's vertex mask
(int, bit v per host vertex v), with None for an unusable edge.  It is the
one injection search in the package: find runs it freely, over every
placement of the pattern, and the exact solvers' table of copies (see
search._copy_tables) is listed by it, once per pattern on the pattern's own
vertices, and relabeled from there onto every larger host.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Callable, Iterable, Optional, Sequence

from .constructions import turan_partition
from .hypergraph import (
    Embedding,
    Family,
    Hypergraph,
    colex_rank,
    kn_edges,
    make_hypergraph,
    vertex_mask,
)

__all__ = [
    "Coloring",
    "RainbowWitness",
    "RainbowFreeReport",
    "BudgetExhausted",
    "make_coloring",
    "layered_coloring",
    "find_rainbow_copy",
    "is_rainbow_family_free",
    "max_rainbow_subgraph",
    "merge_colors",
    "RainbowEmbedder",
]


class BudgetExhausted(RuntimeError):
    """A search hit its node budget; the question is left undecided."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


def check_cap(cap: Optional[float]) -> None:
    """Reject a negative or NaN budget cap; None means unlimited."""
    if cap is not None and not cap >= 0:  # NaN fails too
        raise ValueError(f"budget caps must be >= 0, got {cap}")


@dataclass(frozen=True)
class Coloring:
    """Surjective edge coloring of K_n^r with contiguous 0-based color ids."""

    n: int
    r: int
    colors: tuple[int, ...]
    num_colors: int

    def __post_init__(self) -> None:
        Hypergraph(self.n, self.r, ())  # the host's n >= 0 and r >= 1 checks
        expect = comb(self.n, self.r)
        if len(self.colors) != expect:
            raise ValueError(
                f"expected {expect} = C({self.n},{self.r}) entries, got {len(self.colors)}"
            )
        seen = set(self.colors)
        if self.colors:
            if min(seen) < 0 or max(seen) != self.num_colors - 1:
                raise ValueError("color ids must be 0-based and contiguous at the top")
            if len(seen) != self.num_colors:
                raise ValueError("every color id below num_colors must occur")
        elif self.num_colors != 0:
            raise ValueError("empty edge set cannot use any color")

    def color_of(self, edge: Sequence[int]) -> int:
        e = tuple(sorted(edge))
        if len(e) != self.r or len(set(e)) != self.r:
            raise ValueError(f"{edge} is not an r-subset")
        if e[-1] >= self.n or e[0] < 0:
            raise ValueError(f"{edge} leaves the vertex range")
        return self.colors[colex_rank(e)]

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Edge ranks per color id, ascending inside each class."""
        out: list[list[int]] = [[] for _ in range(self.num_colors)]
        for rank, c in enumerate(self.colors):
            out[c].append(rank)
        return tuple(tuple(x) for x in out)

    def __repr__(self) -> str:
        return f"Coloring(n={self.n}, r={self.r}, m={self.num_colors})"


def make_coloring(n: int, r: int, colors: Iterable[int]) -> Coloring:
    """Constructor that infers num_colors and validates contiguity."""
    cs = tuple(colors)
    m = max(cs) + 1 if cs else 0
    return Coloring(n=n, r=r, colors=cs, num_colors=m)


def layered_coloring(n: int, ell: int) -> Coloring:
    """The part-based coloring of K_n^3 over the balanced partition.

    Triples with two or more vertices in part i all share that part's color;
    every transversal triple gets its own fresh color, in colex order.  When
    each part has at least two vertices (n >= 2*ell) this uses exactly
    t_3(n, ell) + ell colors; smaller parts cannot contribute their color, so
    shallow hosts use fewer.  Color ids stay contiguous either way.
    """
    if not 2 <= ell <= n:
        raise ValueError(f"need n >= ell >= 2, got n={n}, ell={ell}")
    part = turan_partition(n, ell)
    part_of = part.part_of
    # turan_partition puts larger parts first, so the parts of two or more
    # vertices, the ones that color a triple, are 0..k-1 and part p takes
    # color p; transversal triples take k, k+1, ... in colex order
    fresh = sum(size >= 2 for size in part.sizes)
    colors = []
    for e in kn_edges(n, 3):
        a, b, c = (part_of[v] for v in e)
        if a in (b, c) or b == c:
            colors.append(b if b == c else a)
        else:
            colors.append(fresh)
            fresh += 1
    return make_coloring(n, 3, colors)


@dataclass(frozen=True)
class RainbowWitness:
    """A rainbow copy: the embedding plus the (image edge, color) pairs."""

    embedding: Embedding
    edge_colors: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        cols = [c for _, c in self.edge_colors]
        if len(set(cols)) != len(cols):
            raise ValueError("witness edges are not rainbow")


@dataclass(frozen=True)
class RainbowFreeReport:
    """Outcome of a family-wide rainbow check."""

    free: bool
    member_index: Optional[int] = None
    witness: Optional[RainbowWitness] = None


class RainbowEmbedder:
    """Reusable search plan for rainbow copies of one pattern in K_n^r.

    The pattern's non-isolated vertices are embedded injectively; image edges
    must be colored with pairwise distinct colors.  color_at receives an image
    edge as its vertex mask (bit v set for each host vertex v, see
    vertex_mask) and returns the edge's color, an int >= 0, or None when
    the edge is unusable.  Plain containment is the case where every present
    host edge has its own color (see has_copy).  The plan is built here, so callers can
    run find many times cheaply; the solvers' copy table is listed by the
    same search (see search._copy_tables).

    Vertices are placed in a fixed order.  Next comes the vertex with the
    most edges whose other vertices are all placed; ties go to the most
    edges that meet a placed vertex, then to the highest degree, then to the
    least label.  Completing an edge is what lets the search check a color:
    in expansion(K5, 3) the padding vertex of the first two core vertices'
    edge comes third, where counting met edges alone placed all five core
    vertices first.

    Injections that differ by an automorphism have the same image edges, so
    the search tries one per coset of a group G of them, the least (McKay,
    1981): the image of order[q] must exceed that of order[p] when p < q and
    order[q] is in orbits[p], the orbit of order[p] under G_p, the members of
    G fixing order[:p] (vertices of order[:p] in it are not read).  Sending
    each order[p] in turn to the vertex of its orbit with the least image
    meets this, and only one member of a coset does: at the first position
    that the h in G between two members moves, h or its inverse breaks it.
    One bound per position carries them all: low[q] is the last p < q with
    order[q] in orbits[p], or -1.  Orbits along a stabilizer chain nest
    (Sims, 1970): for p < p* = low[q], some member of G_p*, inside G_p, sends
    order[p*] to order[q], so order[q] is in orbits[p] exactly when order[p*]
    is, and following low from q reaches all the positions q's must exceed.
    _orbits(f, order) gives the orbits.  By default G permutes each twin
    class (see Hypergraph.twins) and orbits[p] is order[p]'s class, with no
    automorphism search; the copy table passes canonical.stabilizer_orbits,
    for all of Aut(f), so each copy is listed once.
    """

    def __init__(self, n: int, f: Hypergraph, _orbits: Optional[Callable] = None):
        self.n, self.f = n, f
        # placed vertices per edge; per vertex, edges done (all others placed) and met
        inside = dict.fromkeys(f.edges, 0)
        done = [len(f.incident[v]) if f.r == 1 else 0 for v in range(f.n)]
        met = [0] * f.n
        self.order = order = []
        remaining = list(f.non_isolated)
        while remaining:
            u = max(remaining, key=lambda v: (done[v], met[v], f.degrees[v], -v))
            order.append(u)
            remaining.remove(u)
            for e in f.incident[u]:
                inside[e] += 1
                for w in e:
                    met[w] += inside[e] == 1
                    done[w] += inside[e] == f.r - 1
        pos = {v: i for i, v in enumerate(order)}
        classes: dict[int, list[int]] = {}  # twin classes, the default orbits
        for v in order:
            classes.setdefault(f.twins[v], []).append(v)
        orbits = _orbits(f, order) if _orbits else [classes[f.twins[v]] for v in order]
        self.low = [-1] * len(order)
        for p, orbit in enumerate(orbits):
            for v in orbit:
                if pos[v] > p:
                    self.low[pos[v]] = p
        # per position q, the edges whose last vertex in order is order[q],
        # each given by the positions of its other vertices
        self.schedule: list[list[tuple[int, ...]]] = [[] for _ in order]
        for e in f.edges:
            q = max(pos[v] for v in e)
            self.schedule[q].append(tuple(pos[u] for u in e if u != order[q]))

    def find(
        self,
        color_at: Callable[[int], Optional[int]],
        anchor: Optional[tuple[int, ...]] = None,
        max_nodes: Optional[int] = None,
    ) -> tuple[Optional[Embedding], int]:
        """The first rainbow embedding least in its coset, or None.

        Every rainbow embedding has such a one with the same image edges, so
        find reports a rainbow copy exactly when one exists, the first in its
        fixed order.  color_at maps an image edge's vertex mask to its color,
        or to None when the edge is unusable.  The search is free: anchor
        must be None, and any other value raises ValueError.  Returns
        (embedding, nodes).  Raises BudgetExhausted when max_nodes
        assignments were tried without settling the question.
        """
        if anchor is not None:
            raise ValueError("find searches freely; anchor must be None")
        if len(self.order) > self.n:
            return None, 0
        hit, nodes = self._embed(color_at, lambda *_: True, max_nodes)
        if hit is None:
            return None, nodes
        at = {v: bit.bit_length() - 1 for v, bit in zip(self.order, hit)}
        return Embedding(tuple(map(at.get, range(self.f.n)))), nodes

    def _embed(self, color_at: Callable, leaf: Callable,
               max_nodes: Optional[int] = None) -> tuple[Optional[list[int]], int]:
        """Depth-first search over the rainbow embeddings least in their
        cosets into range(self.n), position q's image above bits[low[q]].
        seen, the colors of the edges placed so far as one int with bit c
        for color c, travels down the recursion.  leaf(bits, seen) gets each
        one's images as bits and its edge colors as that mask, and stops the
        search by returning True.  Returns (the bits there or None, nodes), a
        node being one image tried, and raises BudgetExhausted past max_nodes
        nodes."""
        sched, low, k = self.schedule, self.low, len(self.order)
        bits, nodes = [0] * (k + 1), 0  # bits[-1]: no bound
        host = (1 << self.n) - 1  # every vertex of K_n^r

        def dfs(q: int, used: int, seen: int) -> bool:
            nonlocal nodes
            if q == k:
                return leaf(bits, seen)
            # masks of the placed vertices of the edges q completes
            rests = []
            for others in sched[q]:
                rest = 0
                for p in others:
                    rest |= bits[p]
                rests.append(rest)
            free = host & ~used & -1 << bits[low[q]].bit_length()
            while free:
                bit = free & -free
                free ^= bit
                nodes += 1
                if max_nodes is not None and nodes > max_nodes:
                    raise BudgetExhausted(nodes)
                s = seen
                for rest in rests:
                    c = color_at(rest | bit)
                    if c is None or s >> c & 1:
                        break
                    s |= 1 << c
                else:
                    bits[q] = bit
                    if dfs(q + 1, used | bit, s):
                        return True
            return False

        return (bits if dfs(0, 0, 0) else None), nodes


def find_rainbow_copy(
    chi: Coloring, f: Hypergraph, *, limit: Optional[int] = None
) -> Optional[RainbowWitness]:
    """Search K_n^r under chi for a rainbow copy of f.

    Exhaustive backtracking over partial embeddings, pruning as soon as two
    fully mapped edges collide in color.  limit caps the number of assignment
    nodes; exceeding it raises BudgetExhausted (an explicit "undecided",
    never a silent no).  A negative or NaN limit raises ValueError.
    """
    check_cap(limit)
    if f.r != chi.r:
        raise ValueError(f"uniformity mismatch: pattern {f.r}, coloring {chi.r}")
    color_of = {vertex_mask(e): c for e, c in zip(kn_edges(chi.n, chi.r), chi.colors)}
    emb, _ = RainbowEmbedder(chi.n, f).find(color_of.get, max_nodes=limit)
    if emb is None:
        return None
    pairs = tuple((img, chi.color_of(img)) for img in emb.image_edges(f))
    return RainbowWitness(embedding=emb, edge_colors=pairs)


def is_rainbow_family_free(
    chi: Coloring, fam: Family, *, limit: Optional[int] = None
) -> RainbowFreeReport:
    """True when no member has a rainbow copy; otherwise points at one that has.

    Budget exhaustion propagates as BudgetExhausted: an undecided check is
    never reported as free.  A negative or NaN limit raises ValueError.
    """
    check_cap(limit)
    for i, member in enumerate(fam.members):
        w = find_rainbow_copy(chi, member, limit=limit)
        if w is not None:
            return RainbowFreeReport(free=False, member_index=i, witness=w)
    return RainbowFreeReport(free=True)


def max_rainbow_subgraph(chi: Coloring) -> Hypergraph:
    """One edge per color class: the colex-least representative.

    The result has exactly num_colors edges and is a maximum rainbow
    sub-hypergraph of the host under chi.
    """
    table = kn_edges(chi.n, chi.r)
    picks = [table[cls[0]] for cls in chi.classes]
    return make_hypergraph(chi.n, chi.r, picks)


def merge_colors(chi: Coloring, a: int, b: int) -> Coloring:
    """Recolor class b with color a, then renumber to stay contiguous.

    Merging can only destroy rainbow copies, never create them, which is why
    maximal rainbow-free colorings exist at every color count below the
    maximum.
    """
    m = chi.num_colors
    if not (0 <= a < m and 0 <= b < m):
        raise ValueError(f"color ids must lie in 0..{m - 1}")
    if a == b:
        raise ValueError("merge needs two distinct color ids")
    merged = (a if c == b else c for c in chi.colors)
    return make_coloring(chi.n, chi.r, (c - (c > b) for c in merged))
