import random
import sys
import time
from contextlib import nullcontext
from math import comb, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arl.canonical
import arl.search
from arl.coloring import (
    BudgetExhausted,
    Coloring,
    RainbowEmbedder,
    RainbowWitness,
    find_rainbow_copy,
    is_rainbow_family_free,
    layered_coloring,
    make_coloring,
    max_rainbow_subgraph,
    merge_colors,
)
from arl.constructions import (
    complete_graph,
    complete_hypergraph,
    cycle_graph,
    expansion,
    path_graph,
    single_edge,
    turan_count,
    turan_hypergraph,
)
from arl.hypergraph import (
    Embedding,
    colex_rank,
    has_copy,
    kn_edges,
    make_family,
    make_hypergraph,
)
from arl.search import _vetoed
from helpers import (
    brute_automorphisms,
    copy_table,
    naive_has_anchored_rainbow,
    naive_has_copy,
    naive_has_rainbow,
    naive_placement_order,
    stabilizer_orbits_on,
    twins_off,
)

K3 = complete_graph(3)


def min_endpoint_coloring(n):
    return make_coloring(n, 2, [e[0] for e in kn_edges(n, 2)])


def random_coloring(rng, n, r):
    M = comb(n, r)
    m = rng.randint(1, M)
    raw = [rng.randrange(m) for _ in range(M)]
    remap = {}
    return make_coloring(n, r, [remap.setdefault(x, len(remap)) for x in raw])


class TestColoringType:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            make_coloring(4, 2, [0] * 5)

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            Coloring(n=3, r=2, colors=(0, 2, 2), num_colors=3)

    def test_num_colors_must_match(self):
        with pytest.raises(ValueError):
            Coloring(n=3, r=2, colors=(0, 1, 0), num_colors=3)

    def test_color_of(self):
        chi = min_endpoint_coloring(4)
        assert chi.color_of((2, 3)) == 2
        assert chi.color_of((3, 1)) == 1
        with pytest.raises(ValueError):
            chi.color_of((0, 4))

    def test_classes_partition_ranks(self):
        chi = min_endpoint_coloring(5)
        ranks = sorted(r for cls in chi.classes for r in cls)
        assert ranks == list(range(comb(5, 2)))

    def test_empty(self):
        chi = make_coloring(1, 2, [])
        assert chi.num_colors == 0


class TestLayered:
    def test_color_counts(self):
        assert layered_coloring(7, 3).num_colors == turan_count(7, 3, 3) + 3 == 15
        assert layered_coloring(6, 3).num_colors == 11

    def test_heavy_triples_share_part_color(self):
        chi = layered_coloring(6, 3)
        # parts are {0,1}, {2,3}, {4,5}
        assert chi.color_of((0, 1, 2)) == chi.color_of((0, 1, 4))
        assert chi.color_of((2, 3, 0)) == chi.color_of((2, 3, 5))
        assert chi.color_of((0, 1, 2)) != chi.color_of((2, 3, 0))

    def test_transversal_triples_unique(self):
        chi = layered_coloring(6, 3)
        t1 = chi.color_of((0, 2, 4))
        t2 = chi.color_of((1, 3, 5))
        assert t1 != t2
        sizes = [len(cls) for cls in chi.classes]
        assert sizes.count(1) >= 8

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            layered_coloring(3, 4)

    @pytest.mark.parametrize(
        "n, ell, colors",
        [
            (7, 3, (0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 3, 4, 5, 6, 7, 8, 1,
                    0, 0, 0, 9, 10, 11, 12, 13, 14, 1, 2, 2, 2, 2, 2)),
            (5, 3, (0, 0, 1, 1, 0, 2, 3, 4, 5, 1)),
            (4, 3, (0, 0, 1, 2)),
            (5, 5, tuple(range(10))),
        ],
    )
    def test_colors_pinned(self, n, ell, colors):
        # parts with two or more vertices keep their index as color; the
        # transversal triples follow in colex order
        assert layered_coloring(n, ell).colors == colors


class TestFindRainbow:
    def test_min_endpoint_blocks_triangles(self):
        for n in (3, 4, 5, 6):
            assert find_rainbow_copy(min_endpoint_coloring(n), K3) is None

    def test_all_distinct_has_everything(self):
        chi = make_coloring(5, 2, range(10))
        w = find_rainbow_copy(chi, K3)
        assert w is not None
        assert len({c for _, c in w.edge_colors}) == 3

    def test_witness_consistency(self):
        chi = make_coloring(5, 2, range(10))
        w = find_rainbow_copy(chi, path_graph(2))
        assert w is not None
        for edge, colr in w.edge_colors:
            assert chi.color_of(edge) == colr

    def test_uniformity_mismatch(self):
        chi = min_endpoint_coloring(4)
        with pytest.raises(ValueError):
            find_rainbow_copy(chi, make_hypergraph(3, 3, [(0, 1, 2)]))

    def test_budget_raises(self):
        with pytest.raises(BudgetExhausted):
            find_rainbow_copy(min_endpoint_coloring(6), K3, limit=3)

    @pytest.mark.parametrize("limit", [-1, float("nan")])
    def test_bad_limit_rejected(self, limit):
        # a negative cap would read as "undecided" and a NaN cap as no cap
        chi = min_endpoint_coloring(4)
        with pytest.raises(ValueError, match="budget caps must be >= 0"):
            find_rainbow_copy(chi, K3, limit=limit)
        with pytest.raises(ValueError, match="budget caps must be >= 0"):
            is_rainbow_family_free(chi, make_family([K3]), limit=limit)

    def test_family_report(self):
        chi = min_endpoint_coloring(5)
        fam = make_family([K3, path_graph(2)])
        rep = is_rainbow_family_free(chi, fam)
        assert not rep.free and rep.member_index == 1
        only_k3 = is_rainbow_family_free(chi, make_family([K3]))
        assert only_k3.free and only_k3.witness is None

    def test_against_naive_random(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(3, 6)
            r = rng.choice([2, 3])
            if r > n:
                continue
            pool = kn_edges(rng.randint(r, n), r)
            f = make_hypergraph(
                pool[-1][-1] + 1, r, rng.sample(pool, rng.randint(1, min(4, len(pool))))
            )
            chi = random_coloring(rng, n, r)
            assert (find_rainbow_copy(chi, f) is not None) == naive_has_rainbow(
                chi, f
            )

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 3**6 - 1), st.integers(0, 2**6 - 1))
    def test_against_naive_property(self, code, mask):
        # colorings of K_4^2 with up to 3 colors vs 1-2 edge patterns on 4 vertices
        raw = []
        c = code
        for _ in range(6):
            raw.append(c % 3)
            c //= 3
        remap = {}
        chi = make_coloring(4, 2, [remap.setdefault(x, len(remap)) for x in raw])
        pool = kn_edges(4, 2)
        edges = [e for i, e in enumerate(pool) if mask >> i & 1][:2]
        if not edges:
            return
        f = make_hypergraph(4, 2, edges)
        assert (find_rainbow_copy(chi, f) is not None) == naive_has_rainbow(chi, f)


TWIN_PATTERNS = {
    "K3": K3,
    "K4": complete_graph(4),
    "C4": cycle_graph(4),
    "P3": path_graph(2),
    "K1,3": make_hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)]),
    "2K2": make_hypergraph(4, 2, [(0, 1), (2, 3)]),
    "K3+2K1": make_hypergraph(5, 2, K3.edges),
    "triple": single_edge(3),
    "book3": make_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)]),
    "K4^3": complete_hypergraph(4, 3),
}


def assert_witness(chi, f, w):
    """Check a rainbow witness of f under chi edge by edge."""
    images = w.embedding.images
    placed = [images[v] for v in f.non_isolated]
    assert all(x is not None and 0 <= x < chi.n for x in placed)
    assert len(set(placed)) == len(placed)
    assert len(w.edge_colors) == f.num_edges
    pool = kn_edges(chi.n, chi.r)
    for e, (img, c) in zip(f.edges, w.edge_colors):
        assert img == tuple(sorted(images[v] for v in e))
        assert c == chi.colors[pool.index(img)]
    assert len({c for _, c in w.edge_colors}) == f.num_edges


class TestManyColors:
    # the free search keeps its seen colors as the bits of one int; these
    # colorings and hosts give it more colors than a machine word has bits

    @staticmethod
    def lower_bound(fresh):
        """T(13,3,3)'s 80 triples in distinct colors, every other triple in
        one more, and the triple fresh, if given, in a color of its own."""
        host = turan_hypergraph(13, 3, 3).edge_set
        ids: dict = {}
        return make_coloring(13, 3, [ids.setdefault(e if e in host or e == fresh else "rest", len(ids))
                                     for e in kn_edges(13, 3)])

    @pytest.mark.parametrize("fresh", [None, (0, 1, 5), (5, 6, 9), (9, 10, 11)])
    def test_lower_bound_colorings(self, fresh):
        # a K4^3 on T(13,3,3)'s vertices has two triples off the host; a
        # rainbow copy needs one of them fresh, which (9,10,11) is not, as
        # its three vertices lie in one part
        chi = self.lower_bound(fresh)
        assert chi.num_colors == 81 + (fresh is not None)
        for f in (complete_hypergraph(4, 3), TWIN_PATTERNS["book3"]):
            w = find_rainbow_copy(chi, f)
            assert (w is not None) == naive_has_rainbow(chi, f)
            if w is not None:
                assert_witness(chi, f, w)
        assert (find_rainbow_copy(chi, complete_hypergraph(4, 3)) is None) == (
            fresh in (None, (9, 10, 11)))

    def test_random_near_rainbow_colorings(self):
        rng = random.Random(29)
        for _ in range(20):
            m = rng.randint(65, 78)
            colors = list(range(m)) + [rng.randrange(m) for _ in range(78 - m)]
            rng.shuffle(colors)
            chi = make_coloring(13, 2, colors)
            f = TWIN_PATTERNS[rng.choice(["K3", "K4", "C4", "K1,3"])]
            w = find_rainbow_copy(chi, f)
            assert (w is not None) == naive_has_rainbow(chi, f)
            if w is not None:
                assert_witness(chi, f, w)

    def test_has_copy_in_a_host_of_80_edges(self):
        # has_copy colors each host edge by its index, up to 79 here
        host = turan_hypergraph(13, 3, 3)
        k4_minus = make_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        for f in (single_edge(3), TWIN_PATTERNS["book3"], k4_minus, complete_hypergraph(4, 3)):
            assert has_copy(f, host) == naive_has_copy(f, host)
        assert has_copy(TWIN_PATTERNS["book3"], host) and not has_copy(k4_minus, host)


class TestTwinSortedFind:
    @pytest.mark.parametrize("rules", ["on", "off", "stabilizer"])
    def test_against_naive(self, rules):
        # "stabilizer" runs the free search with the copy table's orbits
        rules = {"on": nullcontext, "off": twins_off,
                 "stabilizer": stabilizer_orbits_on}[rules]
        rng = random.Random(23)
        for _ in range(200):
            f = TWIN_PATTERNS[rng.choice(sorted(TWIN_PATTERNS))]
            chi = random_coloring(rng, rng.randint(f.r, 6), f.r)
            with rules():
                w = find_rainbow_copy(chi, f)
            assert (w is not None) == naive_has_rainbow(chi, f)
            if w is not None:
                assert_witness(chi, f, w)

    @pytest.mark.parametrize("name", sorted(TWIN_PATTERNS))
    def test_witness_is_twin_sorted(self, name):
        # the images of each twin class increase along the placement order,
        # read from f.twins; and each position's image exceeds that of its
        # lower-bound position.  The first witness is least in its order, so
        # twin-sorted with or without the rule; the chain of lower bounds must
        # give exactly the twin order, which f.twins gives directly
        f = TWIN_PATTERNS[name]
        rng = random.Random(name)
        em = RainbowEmbedder(6, f)
        order, low = em.order, em.low
        below: list[set[int]] = []
        for p in low:
            below.append(set() if p < 0 else {p} | below[p])
        assert below == [{p for p in range(q) if f.twins[order[p]] == f.twins[v]}
                         for q, v in enumerate(order)]
        for _ in range(30):
            w = find_rainbow_copy(random_coloring(rng, 6, f.r), f)
            if w is not None:
                images = w.embedding.images
                assert all(images[u] < images[v] for q, v in enumerate(order)
                           for u in order[:q] if f.twins[u] == f.twins[v])
                assert all(images[order[p]] < images[order[q]]
                           for q, p in enumerate(low) if p >= 0)

    def test_twin_rule_cuts_nodes(self):
        # K4 is one twin class.  In a one-colored K_8 every third vertex
        # fails, so the search tries 8 first images, then the pairs after
        # them: with the rule, the 28 increasing pairs and 56 increasing
        # triples; without it, the 56 ordered pairs and 336 ordered triples
        def nodes():
            emb, count = RainbowEmbedder(8, complete_graph(4)).find(lambda m: 0)
            assert emb is None
            return count

        assert nodes() == 8 + 28 + 56
        with twins_off():
            assert nodes() == 8 + 56 + 336


class TestVertexOrder:
    @staticmethod
    def meet_order(f):
        """The order ranked by edges met, degree and label, with no regard to
        completed edges."""
        order, placed, remaining = [], set(), list(f.non_isolated)
        while remaining:
            nxt = max(remaining, key=lambda v: (
                sum(1 for e in f.incident[v] if placed.intersection(e)),
                f.degrees[v],
                -v,
            ))
            order.append(nxt)
            placed.add(nxt)
            remaining.remove(nxt)
        return order

    @pytest.mark.parametrize(
        "name", sorted(n for n, f in TWIN_PATTERNS.items() if f.r == 2) + ["K4^3"])
    def test_graphs_and_k4_3_keep_their_order(self, name):
        # for r = 2 an edge met is an edge completed; K4^3 is all ties
        f = TWIN_PATTERNS[name]
        assert RainbowEmbedder(6, f).order == self.meet_order(f)

    ORDER_PATTERNS = {
        **TWIN_PATTERNS,
        "expansion(K5,3)": expansion(complete_graph(5), 3),
        "expansion(C5,3)": expansion(cycle_graph(5), 3),
        "expansion(K4,4)": expansion(complete_graph(4), 4),
        "expansion(P4,3)": expansion(path_graph(4), 3),
    }

    @pytest.mark.parametrize("name", sorted(ORDER_PATTERNS))
    def test_counted_order_is_the_recounted_rule(self, name):
        # the counts kept as each vertex is placed give the rule's order
        f = self.ORDER_PATTERNS[name]
        assert RainbowEmbedder(f.n, f).order == naive_placement_order(f)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 7), st.data())
    def test_counted_order_on_random_patterns(self, r, n, data):
        pool = kn_edges(n, r)
        picks = data.draw(st.sets(st.integers(0, len(pool) - 1), max_size=8)) if pool else ()
        f = make_hypergraph(n, r, [pool[i] for i in sorted(picks)])
        assert RainbowEmbedder(n, f).order == naive_placement_order(f)

    def test_expansion_checks_an_edge_at_its_third_vertex(self):
        # two core vertices, then the padding vertex of their edge
        f = expansion(complete_graph(5), 3)
        em = RainbowEmbedder(15, f)
        assert set(em.order[:3]) in [set(e) for e in f.edges]
        emb, nodes = em.find(lambda m: None)
        assert emb is None and nodes == 15 + 15 * 14 + 15 * 14 * 13

    def test_sparse_host_is_fast(self):
        start = time.monotonic()
        assert not has_copy(expansion(complete_graph(5), 3), make_hypergraph(15, 3, []))
        assert time.monotonic() - start < 1.0


ANCHORED_PATTERNS = {
    "K3": K3,
    "C4": cycle_graph(4),
    "P3": path_graph(2),
    "K4^3": complete_hypergraph(4, 3),
    "triple": single_edge(3),
    "expansion(P3,3)": expansion(path_graph(2), 3),
    "K3+K1": make_hypergraph(4, 2, K3.edges),
    "C5": cycle_graph(5),
    "book3": make_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)]),
    # placed 0, 2, 3, 1, 4, with orbits from a canonical search
    "C5-relabeled": make_hypergraph(5, 2, [(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)]),
}


@st.composite
def partial_colorings(draw, r):
    """(n, colors by colex rank) with None for absent edges: either distinct
    colors on the present edges, as exact_turan colors, or a random partial
    coloring from a few colors, as exact_anti_ramsey's prefixes are."""
    n = draw(st.integers(r, 6))
    M = comb(n, r)
    if draw(st.booleans()):
        present = draw(st.lists(st.booleans(), min_size=M, max_size=M))
        return n, [i if p else None for i, p in enumerate(present)]
    palette = draw(st.integers(1, 4))
    cell = st.one_of(st.none(), st.integers(0, palette - 1))
    return n, draw(st.lists(cell, min_size=M, max_size=M))


class TestAnchoredFind:
    @pytest.mark.parametrize("name", sorted(ANCHORED_PATTERNS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_against_naive_every_anchor(self, name, data):
        # the solver asks the veto at edge j with every edge above j still
        # blank, so a rainbow copy through edge j is one whose top edge is j
        f = ANCHORED_PATTERNS[name]
        n, colors = data.draw(partial_colorings(f.r))
        table = copy_table(n, [f])
        for j, anchor in enumerate(kn_edges(n, f.r)):
            prefix = colors[: j + 1] + [None] * (len(colors) - j - 1)
            c = colors[j]
            vetoed = c is not None and _vetoed(table[j], prefix, c)
            assert vetoed == naive_has_anchored_rainbow(n, f, prefix, anchor)

    @pytest.mark.parametrize("name", sorted(ANCHORED_PATTERNS))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_copy_table_lists_each_copy_once(self, name, n):
        # injections of the v non-isolated vertices that differ by an
        # automorphism give the same copy, so K_n^r holds P(n, v) / |Aut|
        f = ANCHORED_PATTERNS[name]
        pos = {v: i for i, v in enumerate(f.non_isolated)}
        core = make_hypergraph(len(pos), f.r, [tuple(pos[v] for v in e) for e in f.edges])
        table = copy_table(n, [f])
        assert len(table) == comb(n, f.r)
        listed = [(j, others) for j, row in enumerate(table) for others in row]
        assert len(listed) == perm(n, core.n) // len(brute_automorphisms(core))
        assert len(set(listed)) == len(listed)
        assert all(list(others) == sorted(set(others)) and all(o < j for o in others)
                   for j, others in listed)

    def test_free_callers_never_compute_automorphisms(self):
        # the free find behind has_copy and find_rainbow_copy runs no code
        # of arl.canonical, where the solver's copy table takes its coset
        # constraints from
        called = set()

        def watch(frame, event, arg):
            if event == "call":
                called.add((frame.f_code.co_filename, frame.f_code.co_name))

        def run(fn):
            called.clear()
            sys.setprofile(watch)
            try:
                return fn()
            finally:
                sys.setprofile(None)

        def automorphisms_computed():
            return any(path == arl.canonical.__file__ for path, _ in called)

        host = turan_hypergraph(9, 3, 3)
        assert run(lambda: has_copy(expansion(complete_graph(4), 3), host)) is False
        assert not automorphisms_computed()
        assert run(lambda: has_copy(complete_hypergraph(4, 3), host)) is False
        assert not automorphisms_computed()
        assert run(lambda: find_rainbow_copy(
            layered_coloring(7, 3), expansion(complete_graph(4), 3))) is None
        assert not automorphisms_computed()
        # the watch does see the automorphism code, behind the copy table too
        run(lambda: arl.canonical.automorphism_generators(K3))
        assert automorphisms_computed()
        run(lambda: copy_table(4, [K3]))
        assert automorphisms_computed()

    def test_find_refuses_an_anchor(self):
        with pytest.raises(ValueError, match="anchor"):
            RainbowEmbedder(4, K3).find(lambda m: m, (0, 1))


class TestWitnessType:
    def test_rejects_repeated_colors(self):
        emb = Embedding((0, 1, 2))
        with pytest.raises(ValueError):
            RainbowWitness(embedding=emb, edge_colors=(((0, 1), 5), ((1, 2), 5)))


class TestMaxRainbow:
    def test_one_edge_per_class(self):
        chi = min_endpoint_coloring(5)
        sub = max_rainbow_subgraph(chi)
        assert sub.num_edges == chi.num_colors
        assert sub.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_representatives_are_colex_least(self):
        rng = random.Random(5)
        for _ in range(20):
            chi = random_coloring(rng, 5, 2)
            sub = max_rainbow_subgraph(chi)
            for e in sub.edges:
                cls = chi.classes[chi.color_of(e)]
                assert colex_rank(e) == cls[0]


class TestMerge:
    def test_contiguous_after_merge(self):
        chi = make_coloring(4, 2, range(6))
        m = merge_colors(chi, 1, 4)
        assert m.num_colors == 5
        assert sorted(set(m.colors)) == list(range(5))

    def test_classes_combined(self):
        chi = make_coloring(4, 2, range(6))
        m = merge_colors(chi, 0, 5)
        merged_class = m.classes[0]
        assert set(merged_class) == {0, 5}

    def test_bad_arguments(self):
        chi = make_coloring(4, 2, range(6))
        with pytest.raises(ValueError):
            merge_colors(chi, 2, 2)
        with pytest.raises(ValueError):
            merge_colors(chi, 0, 6)

    def test_merge_never_creates_rainbow(self):
        rng = random.Random(23)
        f = K3
        for _ in range(40):
            chi = random_coloring(rng, 5, 2)
            if find_rainbow_copy(chi, f) is not None:
                continue
            for a in range(chi.num_colors):
                for b in range(a + 1, chi.num_colors):
                    assert find_rainbow_copy(merge_colors(chi, a, b), f) is None


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Coloring(2, 3, (), 1), "empty edge set cannot use any color"),
        (lambda: make_coloring(3, 2, [0, 1, 2]).color_of((0, 1, 2)),
         "(0, 1, 2) is not an r-subset"),
    ],
    ids=["colors_without_edges", "color_of_a_triple"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
