import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arl.hypergraph import (
    Embedding,
    colex_rank,
    has_copy,
    independent_sets,
    is_independent,
    kn_edges,
    make_family,
    make_hypergraph,
    relabel,
    remove_vertices,
)
from helpers import naive_has_copy

K3 = make_hypergraph(3, 2, [(0, 1), (1, 2), (0, 2)])
K4 = make_hypergraph(4, 2, list(itertools.combinations(range(4), 2)))
P3 = make_hypergraph(3, 2, [(0, 1), (1, 2)])


def small_hypergraphs(max_n=6, rs=(2, 3)):
    def build(draw_tuple):
        n, r, mask = draw_tuple
        pool = kn_edges(n, r)
        return make_hypergraph(n, r, [e for i, e in enumerate(pool) if mask >> i & 1])

    return st.tuples(
        st.integers(2, max_n), st.sampled_from(rs), st.integers(0, 2**20 - 1)
    ).filter(lambda t: t[1] <= t[0]).map(
        lambda t: (t[0], t[1], t[2] % (1 << comb(t[0], t[1])))
    ).map(build)


class TestConstruction:
    def test_triangle(self):
        assert K3.num_edges == 3
        assert K3.edges == ((0, 1), (0, 2), (1, 2))

    def test_isolated_vertex_allowed(self):
        h = make_hypergraph(4, 3, [(0, 1, 2)])
        assert h.n == 4 and h.degrees[3] == 0

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError):
            make_hypergraph(3, 3, [(0, 1, 1)])

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            make_hypergraph(4, 3, [(0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_hypergraph(3, 2, [(0, 3)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            make_hypergraph(3, 2, [(0, 1), (1, 0)])

    def test_input_order_irrelevant(self):
        a = make_hypergraph(4, 2, [(2, 3), (0, 1)])
        b = make_hypergraph(4, 2, [(0, 1), (2, 3)])
        assert a == b


class TestColex:
    def test_k4_edge_order(self):
        assert kn_edges(4, 2) == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))

    def test_rank_is_position(self):
        for n, r in [(6, 2), (6, 3), (5, 4)]:
            for i, e in enumerate(kn_edges(n, r)):
                assert colex_rank(e) == i

    def test_stored_edges_follow_rank_order(self):
        h = make_hypergraph(4, 2, [(2, 3), (0, 1), (1, 2)])
        ranks = [colex_rank(e) for e in h.edges]
        assert ranks == sorted(ranks)


class TestLinkDegree:
    def test_degree_sum(self):
        for h in (K3, K4, P3):
            assert sum(h.degrees) == h.r * h.num_edges


class TestIndependentSets:
    def test_triangle_weak(self):
        assert independent_sets(K3) == [(), (0,), (1,), (2,)]

    def test_path_weak(self):
        assert independent_sets(P3) == [(), (0,), (0, 2), (1,), (2,)]

    def test_single_triple_modes(self):
        t = make_hypergraph(3, 3, [(0, 1, 2)])
        weak = independent_sets(t, mode="weak")
        strong = independent_sets(t, mode="strong")
        assert len(weak) == 7
        assert len(strong) == 4

    def test_strong_subset_of_weak(self):
        t = make_hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)])
        weak = set(independent_sets(t, "weak"))
        strong = set(independent_sets(t, "strong"))
        assert strong <= weak

    def test_modes_coincide_for_graphs(self):
        for h in (K3, K4, P3):
            assert independent_sets(h, "weak") == independent_sets(h, "strong")

    def test_is_independent(self):
        assert is_independent(P3, (0, 2))
        assert not is_independent(P3, (0, 1))

    @settings(max_examples=80, deadline=None)
    @given(small_hypergraphs(max_n=7, rs=(1, 2, 3)), st.sampled_from(["weak", "strong"]))
    def test_every_subset_tested_whole(self, h, mode):
        # the extension test reads only the new vertex's edges; is_independent
        # reads every edge, and an r = 1 edge makes its vertex weakly dependent
        subsets = [s for k in range(h.n + 1) for s in itertools.combinations(range(h.n), k)]
        want = sorted(s for s in subsets if is_independent(h, s, mode))
        assert independent_sets(h, mode) == want


class TestEnumerate:
    """Copy search: has_copy, one free embedding search per call."""

    def test_single_edge_in_k4(self):
        e = make_hypergraph(2, 2, [(0, 1)])
        assert has_copy(e, K4)
        assert not has_copy(e, make_hypergraph(4, 2, []))

    def test_k3_in_k4(self):
        assert has_copy(K3, K4)
        assert not has_copy(K4, K3)

    def test_path_in_triangle(self):
        assert has_copy(P3, K3)
        assert not has_copy(K3, P3)

    def test_empty_pattern_embeds_everywhere(self):
        empty = make_hypergraph(0, 2, [])
        assert has_copy(empty, K3)
        assert has_copy(empty, make_hypergraph(0, 2, []))

    def test_isolated_vertices_ignored_by_default(self):
        padded = make_hypergraph(7, 2, [(0, 1), (1, 2)])
        assert has_copy(padded, K3)

    def test_uniformity_mismatch(self):
        t = make_hypergraph(3, 3, [(0, 1, 2)])
        with pytest.raises(ValueError):
            has_copy(t, K3)

    @settings(max_examples=40, deadline=None)
    @given(small_hypergraphs(max_n=4), small_hypergraphs(max_n=5))
    def test_matches_naive_count(self, f, h):
        if f.r != h.r:
            return
        assert has_copy(f, h) == naive_has_copy(f, h)

    def test_embedding_validation(self):
        with pytest.raises(ValueError):
            Embedding((0, 0, None))


class TestRelabelRemove:
    def test_relabel_roundtrip(self):
        perm = (2, 0, 1)
        h = relabel(K3, perm)
        assert h.num_edges == 3
        inv = [0] * 3
        for i, p in enumerate(perm):
            inv[p] = i
        assert relabel(h, tuple(inv)) == K3

    def test_remove_vertices(self):
        h = remove_vertices(K4, (0,))
        assert h.n == 3 and h.num_edges == 3


class TestFamily:
    def test_family_uniformity(self):
        with pytest.raises(ValueError):
            make_family([K3, make_hypergraph(3, 3, [(0, 1, 2)])])

    def test_family_r_inference(self):
        fam = make_family([K3, P3])
        assert fam.r == 2 and len(fam) == 2

    def test_empty_family_needs_r(self):
        fam = make_family([], r=3)
        assert fam.r == 3 and len(fam) == 0
        with pytest.raises(ValueError):
            make_family([])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: kn_edges(-1, 2), "n and r must be nonnegative"),
        (lambda: relabel(K3, [0, 0, 1]), "perm must be a permutation of range(n)"),
        (lambda: remove_vertices(K3, [3]), "vertex out of range"),
        (lambda: is_independent(K3, [-1]), "vertex out of range"),
        (lambda: is_independent(K3, [0], "medium"), "unknown independence mode 'medium'"),
        (lambda: independent_sets(K3, "medium"), "unknown independence mode 'medium'"),
    ],
    ids=["kn_edges", "relabel", "remove_vertices", "is_independent_range",
         "is_independent_mode", "independent_sets_mode"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
