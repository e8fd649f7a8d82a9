import itertools
import random
from contextlib import nullcontext
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arl import canonical
from arl.canonical import (
    are_isomorphic,
    automorphism_generators,
    canonical_form,
    canonical_key,
    distinct_classes,
    orbit,
    orbit_representatives,
    stabilizer_orbits,
)
from arl.coloring import RainbowEmbedder
from arl.constructions import (
    complete_graph,
    complete_hypergraph,
    expansion,
    minus_family,
    named_hypergraph,
    path_graph,
    pendant_minus_family,
    splitting_family,
    turan_hypergraph,
)
from arl.hypergraph import independent_sets, kn_edges, make_hypergraph, relabel
from arl.verify import _small_corpus
from helpers import (
    brute_automorphisms,
    brute_stabilizer_orbits,
    copy_table,
    expansion_automorphisms,
    invariant_off,
    naive_canonical_edges,
    naive_refine,
    orbits_off,
    refine_naive,
    twins_off,
)


def random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


class TestBasics:
    def test_idempotent(self):
        h = path_graph(3)
        c = canonical_form(h)
        assert canonical_form(c) == c

    def test_two_labelings_of_path_agree(self):
        a = make_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
        b = make_hypergraph(4, 2, [(0, 2), (2, 3), (1, 3)])
        assert canonical_key(a) == canonical_key(b)

    def test_triangle_vs_path_differ(self):
        assert canonical_key(complete_graph(3)) != canonical_key(path_graph(3))

    def test_all_labelings_of_triple_pair_agree(self):
        base = make_hypergraph(4, 3, [(0, 1, 2), (0, 2, 3)])
        keys = set()
        for perm in itertools.permutations(range(4)):
            keys.add(canonical_key(relabel(base, perm)))
        assert len(keys) == 1

    def test_three_vertex_graph_classes(self):
        keys = set()
        for mask in range(8):
            pool = kn_edges(3, 2)
            h = make_hypergraph(3, 2, [e for i, e in enumerate(pool) if mask >> i & 1])
            keys.add(canonical_key(h))
        assert len(keys) == 4  # empty, one edge, path, triangle

    def test_no_vertex_cap(self):
        big = make_hypergraph(17, 2, [(v, v + 1) for v in range(16)])
        c = canonical_form(big)
        assert c.n == 17 and c.num_edges == 16

    def test_empty(self):
        h = make_hypergraph(0, 2, [])
        assert canonical_form(h) == h


class TestDistinctClasses:
    def test_first_of_each_class_in_input_order(self):
        p3 = make_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
        p3_relabeled = make_hypergraph(4, 2, [(0, 2), (2, 3), (1, 3)])
        star = make_hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])
        star_relabeled = make_hypergraph(4, 2, [(0, 3), (1, 3), (2, 3)])
        graphs = [p3_relabeled, star_relabeled, p3, complete_graph(3), star]
        got = distinct_classes(graphs)
        assert got == (p3_relabeled, star_relabeled, complete_graph(3))
        assert all(a is b for a, b in zip(got, graphs[:2]))

    def test_empty_input(self):
        assert distinct_classes([]) == ()

    def test_accepts_an_iterator(self):
        graphs = [relabel(path_graph(3), p) for p in itertools.permutations(range(4))]
        assert distinct_classes(iter(graphs)) == (graphs[0],)


@st.composite
def small_hypergraphs(draw, max_n):
    """A random r-graph, r = 1..3, on r to max_n vertices."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, max_n))
    return make_hypergraph(n, r, draw(st.lists(st.sampled_from(kn_edges(n, r)), unique=True)))


class TestInvariance:
    def test_random_relabelings(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(2, 7)
            r = rng.choice([2, 3])
            if r > n:
                continue
            pool = kn_edges(n, r)
            k = rng.randint(0, len(pool))
            h = make_hypergraph(n, r, rng.sample(pool, k))
            ref = canonical_key(h)
            for _ in range(10):
                assert canonical_key(relabel(h, random_perm(rng, n))) == ref
        # large automorphism groups, where orbit pruning does the work
        symmetric = [
            make_hypergraph(14, 2, []),
            make_hypergraph(12, 2, [(2 * i, 2 * i + 1) for i in range(6)]),
            make_hypergraph(12, 2, [e for i in range(0, 12, 3) for e in
                                    ((i, i + 1), (i, i + 2), (i + 1, i + 2))]),
            make_hypergraph(8, 2, [(a, b) for a in range(4) for b in range(4, 8)]),
            expansion(complete_graph(4), 3),
        ]
        for h in symmetric:
            ref = canonical_key(h)
            for _ in range(5):
                assert canonical_key(relabel(h, random_perm(rng, h.n))) == ref

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**15 - 1), st.permutations(list(range(5))))
    def test_property_relabel(self, mask, perm):
        pool = kn_edges(5, 2)
        mask %= 1 << comb(5, 2)
        h = make_hypergraph(5, 2, [e for i, e in enumerate(pool) if mask >> i & 1])
        assert canonical_key(h) == canonical_key(relabel(h, tuple(perm)))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_form_is_the_least_leaf(self, data):
        # the least certificate over every leaf of the unpruned search tree
        h = data.draw(small_hypergraphs(6))
        assert canonical_form(h).edges == naive_canonical_edges(h)

    @pytest.mark.parametrize("n", [7, 8])
    def test_form_is_the_least_leaf_of_a_regular_graph(self, n):
        # refinement cannot split C3 + C4, so leaves individualizing a
        # triangle vertex first and those a square vertex first give
        # different graphs, and only the certificate's order picks between
        c3_c4 = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]
        for perm in itertools.islice(itertools.permutations(range(n)), 0, 5040, 997):
            h = relabel(make_hypergraph(n, 2, c3_c4), perm)
            assert canonical_form(h).edges == naive_canonical_edges(h)

    def test_multipartite_worst_case(self):
        h = turan_hypergraph(16, 4, 2)
        c = canonical_form(h)
        assert c.num_edges == h.num_edges


class TestAreIsomorphic:
    def test_positive(self):
        a = make_hypergraph(4, 2, [(0, 1), (2, 3)])
        b = make_hypergraph(4, 2, [(0, 3), (1, 2)])
        assert are_isomorphic(a, b)

    def test_negative_cheap_invariants(self):
        assert not are_isomorphic(complete_graph(3), path_graph(2))

    def test_negative_same_counts(self):
        # same n, same edge count, different structure
        a = make_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])  # path
        b = make_hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])  # star
        assert not are_isomorphic(a, b)


def close_group(gens, n):
    """All products of the generators, as vertex maps p with p[v] the image."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


PATTERNS = [
    ("K2", named_hypergraph("K2"), 2),
    ("K3", named_hypergraph("K3"), 6),
    ("K4", named_hypergraph("K4"), 24),
    ("K5", named_hypergraph("K5"), 120),
    ("C4", named_hypergraph("C4"), 8),
    ("C5", named_hypergraph("C5"), 10),
    ("C6", named_hypergraph("C6"), 12),
    ("P3", named_hypergraph("P3"), 2),
    ("P4", named_hypergraph("P4"), 2),
    ("triple", named_hypergraph("triple"), 6),
    ("K4^3", complete_hypergraph(4, 3), 24),
    ("K5^3", complete_hypergraph(5, 3), 120),
    ("expansion(K3,3)", expansion(complete_graph(3), 3), 6),
    ("expansion(P3,3)", expansion(path_graph(2), 3), 8),
    ("K3+2K1", make_hypergraph(5, 2, complete_graph(3).edges), 12),
]


def on_tuple(g, s):
    return tuple(g[v] for v in s)


def ordered_edges(h):
    return [t for e in h.edges for t in itertools.permutations(e)]


class TestAutomorphismGenerators:
    @pytest.mark.parametrize("name, h, order", PATTERNS)
    def test_generate_full_group(self, name, h, order):
        gens = automorphism_generators(h)
        assert all(sorted(g) == list(range(h.n)) for g in gens)
        group = close_group(gens, h.n)
        assert group == brute_automorphisms(h)
        assert len(group) == order


class TestOrbit:
    def test_small_cases(self):
        assert orbit([], [(1, 0)]) == set()
        assert orbit([0], []) == {0}
        assert orbit([0], [(1, 2, 0)]) == {0, 1, 2}
        assert orbit([0, 3], [(1, 0, 2, 3)]) == {0, 1, 3}
        assert orbit([(0, 1)], [(1, 2, 0)], on_tuple) == {(0, 1), (1, 2), (2, 0)}

    @pytest.mark.parametrize("name, h, order", PATTERNS)
    def test_matches_brute_orbits(self, name, h, order):
        gens = automorphism_generators(h)
        group = brute_automorphisms(h)
        for v in range(h.n):
            assert orbit([v], gens) == {p[v] for p in group}
        for t in ordered_edges(h):
            assert orbit([t], gens, on_tuple) == {on_tuple(p, t) for p in group}

    @pytest.mark.parametrize("name, h, order", PATTERNS)
    def test_anchored_plans_one_seed_per_edge_orbit(self, name, h, order):
        # the solver's anchored question at edge j reads row j of the copy
        # table; in K_m^r, m = v(core), the row at the top edge lists each
        # copy through it once, and each edge orbit O of the core lands on
        # the top edge in |O| r! (m - r)! / |Aut| of those copies
        pos = {v: i for i, v in enumerate(h.non_isolated)}
        core = make_hypergraph(len(pos), h.r, [tuple(pos[v] for v in e) for e in h.edges])
        m, r = core.n, core.r
        pool = kn_edges(m, r)
        top = pool[-1]
        row = copy_table(m, [h])[-1]
        listed = [frozenset([top, *(pool[o] for o in others)]) for others in row]
        assert len(set(listed)) == len(listed)

        def on_edge(g, e):
            return tuple(sorted(g[v] for v in e))

        gens = automorphism_generators(core)
        group = brute_automorphisms(core)
        orbits = {frozenset(orbit([e], gens, on_edge)) for e in core.edges}
        through = {}  # copy through the top edge -> orbit of the edge sent there
        for p in itertools.permutations(range(m)):
            image = frozenset(on_edge(p, e) for e in core.edges)
            for e in core.edges:
                if on_edge(p, e) == top:
                    o = next(o for o in orbits if e in o)
                    assert through.setdefault(image, o) == o
        assert set(listed) == set(through)
        for o in orbits:
            seeded = sum(through[c] == o for c in listed)
            assert seeded * len(group) == len(o) * factorial(r) * factorial(m - r)


class TestTwins:
    @pytest.mark.parametrize("name, h, order", PATTERNS)
    def test_classes_are_the_automorphic_transpositions(self, name, h, order):
        group = brute_automorphisms(h)
        for v, w in itertools.combinations(range(h.n), 2):
            swap = list(range(h.n))
            swap[v], swap[w] = w, v
            assert (h.twins[v] == h.twins[w]) == (tuple(swap) in group)
        # twins[v] is the least vertex of v's class
        assert all(h.twins[v] == min(u for u in range(h.n) if h.twins[u] == h.twins[v])
                   for v in range(h.n))

    def test_padding_makes_twins(self):
        # expansion to r = 4 pads each edge with two private vertices
        h = expansion(complete_graph(3), 4)
        assert sorted(set(h.twins)) == [0, 1, 2, 3, 5, 7]


TWIN_BASES = {
    "K3": complete_graph(3),
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "C4": named_hypergraph("C4"),
    "C5": named_hypergraph("C5"),
    "C6": named_hypergraph("C6"),
    "P3": named_hypergraph("P3"),
    "K3+2K1": make_hypergraph(5, 2, complete_graph(3).edges),
}


@st.composite
def twinned_hypergraphs(draw):
    """A small random hypergraph, some of whose vertices are cloned so that
    twins are common, and a relabeling of it."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, 6))
    pool = kn_edges(n, r)
    h = make_hypergraph(n, r, draw(st.lists(st.sampled_from(pool), unique=True)))
    for v in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        # the clone c gets a copy of each edge through v, with v replaced by c
        c = h.n
        clones = [[c if u == v else u for u in e] for e in h.incident[v]]
        h = make_hypergraph(c + 1, r, list(h.edges) + clones)
    return h, draw(st.permutations(list(range(h.n))))


class TestTwinRules:
    # the twin rules of _search must leave every canonical key as it was

    @pytest.mark.parametrize("family", [splitting_family, minus_family])
    @pytest.mark.parametrize("name", sorted(TWIN_BASES))
    def test_expansion_families_match_rules_off(self, name, family):
        on = family(expansion(TWIN_BASES[name], 3))
        keys = [canonical_key(m) for m in on.members]
        with twins_off():
            off = family(expansion(TWIN_BASES[name], 3))
            assert [canonical_key(m) for m in off.members] == keys
        assert len(off) == len(on)

    @settings(max_examples=80, deadline=None)
    @given(twinned_hypergraphs())
    def test_random_keys_match_rules_off(self, drawn):
        h, perm = drawn
        g = relabel(h, perm)
        on = (canonical_key(h), canonical_key(g))
        with twins_off():
            off = (canonical_key(h), canonical_key(g))
        assert on[0] == on[1] == off[0] == off[1]
        assert len(distinct_classes([h, g])) == 1

    def test_twins_off_overrides_a_cached_relation(self):
        h = make_hypergraph(6, 2, [])
        assert h.twins == (0,) * 6
        # the seeded transpositions (0 v) are all the generators found
        assert len(automorphism_generators(h)) == 5
        with twins_off():
            assert h.twins == tuple(range(6))
        assert h.twins == (0,) * 6


def family_members(h):
    """Every family built through orbit_representatives, by name."""
    out = {f"split-{mode}": splitting_family(h, mode).members for mode in ("weak", "strong")}
    out["minus"] = minus_family(h).members
    for k in range(1, h.r):
        out[f"pendant-{k}"] = pendant_minus_family(h, k).members
    return out


def count_searches(monkeypatch, build):
    """The number of canonical searches build() runs."""
    calls = []
    search = canonical._search

    def counted(h):
        calls.append(h)
        return search(h)

    monkeypatch.setattr(canonical, "_search", counted)
    build()
    return len(calls)


ORBIT_BASES = [(name, r) for r in (3, 4) for name in sorted(TWIN_BASES)]


@st.composite
def individualized(draw):
    """A random r-graph, r = 1..3, on at most 9 vertices, a stable partition
    of it with up to three vertices individualized, and that partition with
    one more vertex v, from a cell of two or more, taken out: (h, split, v)."""
    h = draw(small_hypergraphs(9))
    cells = naive_refine(h, [list(range(h.n))])
    while True:
        i = draw(st.sampled_from(range(len(cells))))
        cell = cells[i]
        if len(cell) == 1 or not draw(st.integers(0, 3)):
            break
        v = draw(st.sampled_from(cell))
        cells = naive_refine(h, cells[:i] + [[v], [u for u in cell if u != v]] + cells[i + 1:])
    assume(len(cell) > 1)
    v = draw(st.sampled_from(cell))
    return h, cells[:i] + [[v], [u for u in cell if u != v]] + cells[i + 1:], v


class TestRefineRule:
    # _refine signs, after a vertex is individualized, only the cells a split
    # can reach; the partition it returns, and so every search, must be the
    # one that signing every cell in every round gives

    @settings(max_examples=300, deadline=None)
    @given(individualized())
    def test_against_every_cell_signed(self, drawn):
        h, split, v = drawn
        assert canonical._refine(h, split, [v]) == naive_refine(h, split)

    @settings(max_examples=150, deadline=None)
    @given(twinned_hypergraphs())
    def test_searches_match_every_cell_signed(self, drawn):
        h, order = drawn
        got = (canonical._search(h), stabilizer_orbits(h, tuple(order)))
        with refine_naive():
            assert (canonical._search(h), stabilizer_orbits(h, tuple(order))) == got

    @pytest.mark.parametrize("name, r", ORBIT_BASES)
    def test_expansions_match_every_cell_signed(self, name, r):
        h = expansion(TWIN_BASES[name], r)
        order = tuple(random.Random(name).sample(range(h.n), h.n))
        got = (canonical._search(h), stabilizer_orbits(h, order))
        with refine_naive():
            assert (canonical._search(h), stabilizer_orbits(h, order)) == got


class TestStabilizerOrbits:
    # the copy tables' coset rule reads these orbits: each must be the brute
    # one, from any order and with the twin rules on or off, or a copy is
    # listed twice or not at all

    @staticmethod
    def check(h, group, shuffled, searches=False):
        for order in (tuple(range(h.n)), tuple(reversed(range(h.n))), tuple(shuffled)):
            want = brute_stabilizer_orbits(group, order)
            assert stabilizer_orbits(h, order) == want, (h.edges, order)
            with twins_off():
                assert stabilizer_orbits(h, order) == want, (h.edges, order)
            stab = group
            for p in range(h.n if searches else 0):
                # a search from first cells order[0], ..., order[p-1], rest
                # finds only automorphisms keeping each, and all their orbits
                rest = [u for u in range(h.n) if u not in order[:p]]
                gens = canonical._search(h, [[u] for u in order[:p]] + [rest])[1]
                assert set(gens) <= stab, (h.edges, order, p)
                assert all(orbit([v], gens) == {g[v] for g in stab} for v in rest)
                stab = {g for g in stab if g[order[p]] == order[p]}

    def test_small_corpus(self):
        rng = random.Random(3)
        for h in _small_corpus():
            self.check(h, brute_automorphisms(h), rng.sample(range(h.n), h.n), True)

    def test_regular_but_not_transitive(self):
        # refinement cannot tell the triangle of C3 + C4 from its square, in
        # the graph or its expansion, so the first cell is no orbit
        base = make_hypergraph(7, 2, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
        group = brute_automorphisms(base)
        self.check(base, group, [6, 0, 3, 1, 5, 2, 4], True)
        assert stabilizer_orbits(base, tuple(range(7)))[0] == {0, 1, 2}
        h = expansion(base, 3)
        self.check(h, expansion_automorphisms(base, 3), random.Random(7).sample(range(h.n), h.n))

    @pytest.mark.parametrize("name, r", ORBIT_BASES)
    def test_expansions(self, name, r):
        h = expansion(TWIN_BASES[name], r)
        group = expansion_automorphisms(TWIN_BASES[name], r)
        if h.n <= 8:
            assert group == brute_automorphisms(h)
        self.check(h, group, random.Random(name).sample(range(h.n), h.n))

    @settings(max_examples=40, deadline=None)
    @given(twinned_hypergraphs())
    def test_random(self, drawn):
        h, perm = drawn
        self.check(h, brute_automorphisms(h), perm, True)

    @staticmethod
    def check_bounds(h, group):
        # RainbowEmbedder keeps one lower bound per position, the last earlier
        # position whose brute orbit holds order[q]; following the bounds from
        # q must reach every earlier position whose orbit holds it, or the
        # copy table lists a copy twice
        for rules in (nullcontext, twins_off):
            with rules():
                em = RainbowEmbedder(h.n, h, stabilizer_orbits)
            brute = brute_stabilizer_orbits(group, em.order)
            for q, v in enumerate(em.order):
                above = {p for p in range(q) if v in brute[p]}
                assert em.low[q] == max(above, default=-1), (h.edges, em.order, q)
                reached, p = set(), em.low[q]
                while p >= 0:
                    reached.add(p)
                    p = em.low[p]
                assert reached == above, (h.edges, em.order, q)

    def test_one_bound_per_position_small_corpus(self):
        for h in _small_corpus():
            self.check_bounds(h, brute_automorphisms(h))

    @pytest.mark.parametrize("name, r", ORBIT_BASES)
    def test_one_bound_per_position_expansions(self, name, r):
        self.check_bounds(expansion(TWIN_BASES[name], r),
                          expansion_automorphisms(TWIN_BASES[name], r))


class TestOrbitRule:
    # the orbit rule of the splitting and deletion families must leave every
    # member, its labels and its place, as it was

    @pytest.mark.parametrize("name, h, order", PATTERNS)
    def test_representatives_are_the_first_of_each_brute_orbit(self, name, h, order):
        group = brute_automorphisms(h)

        def first_of_orbits(items):
            seen, out = set(), []
            for s in items:
                if s not in seen:
                    out.append(s)
                    seen |= {tuple(sorted(p[v] for v in s)) for p in group}
            return out

        for items in (h.edges, independent_sets(h), [(v,) for v in range(h.n)]):
            assert orbit_representatives(h, items) == first_of_orbits(items)

    def test_small_corpus_matches_rule_off(self):
        for h in _small_corpus():
            on = family_members(h)
            with orbits_off():
                assert family_members(h) == on, h

    @pytest.mark.parametrize("name, r", ORBIT_BASES)
    def test_expansion_families_match_rule_off(self, name, r):
        h = expansion(TWIN_BASES[name], r)
        on = family_members(h)
        with orbits_off():
            assert family_members(h) == on

    @settings(max_examples=60, deadline=None)
    @given(twinned_hypergraphs())
    def test_random_families_match_rule_off(self, drawn):
        h, perm = drawn
        for g in (h, relabel(h, perm)):
            on = family_members(g)
            with orbits_off():
                assert family_members(g) == on

    @pytest.mark.parametrize("build", [
        lambda: splitting_family(expansion(complete_graph(4), 3)),
        lambda: minus_family(expansion(complete_graph(8), 3)),
        lambda: minus_family(complete_graph(5)),
    ], ids=["split-expansion(K4,3)", "minus-expansion(K8,3)", "minus-K5"])
    def test_one_search_per_family(self, monkeypatch, build):
        # one automorphism search and no key: the 16 cores of expansion(K4,3)
        # fall into 5 orbits whose splits have 5 distinct invariants, and the
        # edges of K_l into one orbit; keying every candidate would take 16,
        # 28 and 10 searches, and keying every orbit 6, 2 and 2
        assert count_searches(monkeypatch, build) == 1

    @pytest.mark.parametrize("build", [
        lambda: splitting_family(expansion(complete_graph(4), 3)),
        lambda: minus_family(expansion(complete_graph(8), 3)),
        lambda: minus_family(complete_graph(5)),
    ], ids=["split-expansion(K4,3)", "minus-expansion(K8,3)", "minus-K5"])
    def test_one_search_per_family_plus_one_per_class(self, monkeypatch, build):
        # with the invariant buckets off every orbit representative collides,
        # so each class is keyed once: 1 + 5 searches for expansion(K4,3); a
        # family of one class has nothing to collide with and keys nothing
        classes = len(build().members)
        with invariant_off():
            searches = count_searches(monkeypatch, build)
        assert searches == 1 + (classes if classes > 1 else 0)
        assert (classes, searches) in ((5, 6), (1, 1))


class TestInvariantRule:
    # the invariant buckets of distinct_classes must leave every kept graph,
    # its labels and its place, as they were

    def test_invariant_survives_relabeling(self):
        rng = random.Random(11)
        for h in list(_small_corpus()) + [expansion(TWIN_BASES[name], 3)
                                          for name in sorted(TWIN_BASES)]:
            ref = canonical._invariant(h)
            for _ in range(3):
                assert canonical._invariant(relabel(h, random_perm(rng, h.n))) == ref

    def test_collision_keeps_both_classes(self):
        c6 = named_hypergraph("C6")
        two_k3 = make_hypergraph(6, 2, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert canonical._invariant(c6) == canonical._invariant(two_k3)
        graphs = [c6, two_k3, relabel(c6, (1, 0, 2, 3, 4, 5)), relabel(two_k3, (5, 4, 3, 2, 1, 0))]
        got = distinct_classes(graphs)
        assert len(got) == 2 and got[0] is c6 and got[1] is two_k3
        assert not are_isomorphic(c6, two_k3)

    def test_small_corpus_matches_rule_off(self):
        on = _small_corpus()
        with invariant_off():
            assert _small_corpus() == on
        for h in on:
            members = family_members(h)
            with invariant_off():
                assert family_members(h) == members, h

    @pytest.mark.parametrize("name, r", ORBIT_BASES)
    def test_expansion_families_match_rule_off(self, name, r):
        h = expansion(TWIN_BASES[name], r)
        on = family_members(h)
        with invariant_off():
            assert family_members(h) == on

    @settings(max_examples=60, deadline=None)
    @given(twinned_hypergraphs())
    def test_random_families_match_rule_off(self, drawn):
        h, perm = drawn
        for g in (h, relabel(h, perm)):
            on = family_members(g)
            with invariant_off():
                assert family_members(g) == on
