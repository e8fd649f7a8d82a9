import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arl.canonical import are_isomorphic, canonical_key, distinct_classes
from arl.constructions import (
    blowup,
    complete_graph,
    complete_hypergraph,
    cycle_graph,
    expansion,
    expansion_family,
    minus_family,
    named_hypergraph,
    path_graph,
    pendant_minus_family,
    single_edge,
    special_blowup_graph,
    split_set,
    split_vertex,
    splitting_family,
    turan_count,
    turan_hypergraph,
    turan_partition,
)
from arl.hypergraph import (
    independent_sets,
    kn_edges,
    make_family,
    make_hypergraph,
    remove_vertices,
)
from arl.verify import _small_corpus

K3 = complete_graph(3)
P3 = path_graph(2)


class TestExpansion:
    def test_k3_to_triples(self):
        h = expansion(K3, 3)
        assert h.n == 6
        assert h.edges == ((0, 1, 3), (0, 2, 4), (1, 2, 5))

    def test_p4_to_triples(self):
        h = expansion(path_graph(4), 3)
        assert h.n == 9 and h.num_edges == 4

    def test_fresh_blocks_disjoint(self):
        h = expansion(complete_graph(4), 4)
        base = 4
        fresh = [v for e in h.edges for v in e if v >= base]
        assert len(fresh) == len(set(fresh)) == 2 * h.num_edges

    def test_strictness(self):
        with pytest.raises(ValueError):
            expansion(K3, 2)

    def test_edge_count_preserved(self):
        for f in (K3, path_graph(3), cycle_graph(5)):
            for r in (3, 4):
                assert expansion(f, r).num_edges == f.num_edges

    def test_family_expansion(self):
        fam = expansion_family(make_family([K3, P3]), 3)
        assert fam.r == 3 and len(fam) == 2

    def test_expanded_deletions_are_deletions_of_expansion(self):
        # bound_report reuses ex(n, F_-) for the expansion row on this identity
        for f in _small_corpus():
            for r in (f.r + 1, f.r + 2):
                want = minus_family(expansion(f, r)).members
                assert expansion_family(minus_family(f), r).members == want


class TestBlowup:
    def test_edge_count(self):
        for t in (1, 2, 3):
            assert blowup(K3, t).num_edges == 3 * t * t

    def test_k3_blowup_is_tripartite_turan(self):
        assert are_isomorphic(blowup(K3, 2), turan_hypergraph(6, 3, 2))

    def test_identity_at_t1(self):
        assert blowup(P3, 1) == P3

    def test_composition_labeled(self):
        f = path_graph(2)
        assert blowup(blowup(f, 2), 3) == blowup(f, 6)

    def test_triple_blowup(self):
        t = single_edge(3)
        b = blowup(t, 2)
        assert b.n == 6 and b.num_edges == 8


class TestSplitting:
    def test_split_vertex_triangle(self):
        g = split_vertex(K3, 0)
        assert g.edges == ((0, 1), (0, 2), (1, 3))
        assert are_isomorphic(g, path_graph(3))

    def test_split_center_of_path(self):
        g = split_vertex(P3, 1)
        two_k2 = make_hypergraph(4, 2, [(0, 1), (2, 3)])
        assert are_isomorphic(g, two_k2)

    def test_split_set_path_ends(self):
        g = split_set(P3, (0, 2))
        star = make_hypergraph(3, 2, [(0, 1), (0, 2)])
        assert are_isomorphic(g, star)

    def test_split_requires_independent(self):
        with pytest.raises(ValueError):
            split_set(P3, (0, 1))

    def test_split_family_k3(self):
        fam = splitting_family(K3)
        keys = sorted(canonical_key(m) for m in fam.members)
        assert keys == sorted(
            [canonical_key(K3), canonical_key(path_graph(3))]
        )
        # the empty independent set comes first and contributes f itself
        assert fam.members[0] == K3

    def test_split_family_path(self):
        fam = splitting_family(P3)
        two_k2 = make_hypergraph(4, 2, [(0, 1), (2, 3)])
        keys = sorted(canonical_key(m) for m in fam.members)
        assert keys == sorted([canonical_key(P3), canonical_key(two_k2)])

    def test_edge_count_invariant_random(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(2, 5)
            r = rng.choice([2, 3])
            if r > n:
                continue
            pool = kn_edges(n, r)
            f = make_hypergraph(n, r, rng.sample(pool, rng.randint(0, len(pool))))
            sets = independent_sets(f)
            iset = sets[rng.randrange(len(sets))]
            assert split_set(f, iset).num_edges == f.num_edges

    def test_strong_mode_restricts(self):
        t = make_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])
        weak = splitting_family(t, "weak")
        strong = splitting_family(t, "strong")
        assert (len(weak), len(strong)) == (3, 2)

    @staticmethod
    def _unreduced(f, mode):
        # the plain definition: split every independent set, then dedupe
        splits = (split_set(f, s, mode) for s in independent_sets(f, mode))
        return distinct_classes(splits)

    @pytest.mark.parametrize("mode", ["weak", "strong"])
    def test_one_set_per_core_matches_unreduced(self, mode):
        # the core rule keeps the same members in the same order; the corpus
        # adds isolated vertices and degree-1 vertices on low labels, where a
        # set's core differs from the set
        corpus = list(_small_corpus()) + [
            path_graph(3),
            make_hypergraph(6, 2, [(0, 1), (1, 2), (2, 3)]),
            make_hypergraph(5, 2, [(1, 3), (3, 4)]),
            make_hypergraph(6, 3, [(0, 2, 4), (2, 4, 5)]),
            expansion(complete_graph(4), 3),
            expansion(cycle_graph(5), 3),
            expansion(cycle_graph(4), 3),
        ]
        for f in corpus:
            assert splitting_family(f, mode).members == self._unreduced(f, mode), f

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_split_set_is_the_split_vertex_chain(self, data):
        # split_set splits on plain edges, once, as the chain of split_vertex
        # calls from the highest vertex down does, edge for edge
        r = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(r, 8))
        f = make_hypergraph(n, r, data.draw(st.lists(st.sampled_from(kn_edges(n, r)), unique=True)))
        mode = data.draw(st.sampled_from(["weak", "strong"]))
        vs = data.draw(st.sampled_from(independent_sets(f, mode)))
        g = f
        for u in sorted(vs, reverse=True):
            g = split_vertex(g, u)
        got = split_set(f, data.draw(st.permutations(vs)), mode)
        assert (got.n, got.edges) == (g.n, g.edges)

    def test_splitting_family_names_an_unknown_mode(self):
        for f in (K3, single_edge(2), make_hypergraph(2, 2, [])):
            with pytest.raises(ValueError, match="unknown independence mode 'medium'"):
                splitting_family(f, "medium")

    def test_k5_expansion_classes(self):
        assert len(splitting_family(expansion(complete_graph(5), 3))) == 6


class TestDeletionFamilies:
    def test_minus_triangle(self):
        fam = minus_family(K3)
        assert len(fam) == 1
        assert are_isomorphic(fam.members[0], P3)

    def test_minus_three_edge_path(self):
        fam = minus_family(path_graph(3))
        assert len(fam) == 2  # end edge vs middle edge

    def test_minus_single_triple_is_edgeless(self):
        fam = minus_family(single_edge(3))
        assert len(fam) == 1
        assert fam.members[0].num_edges == 0 and fam.members[0].n == 0

    def test_minus_drops_isolated(self):
        # deleting an end edge of P4 isolates a vertex, which goes; deleting
        # the middle edge leaves 2K2 on all four vertices
        fam = minus_family(path_graph(3))
        assert sorted(m.n for m in fam.members) == [3, 4]
        assert all(0 not in m.degrees for m in fam.members)

    def test_pendant_path(self):
        fam = pendant_minus_family(P3, 1)
        assert len(fam) == 1
        assert are_isomorphic(fam.members[0], single_edge(2))

    def test_pendant_triangle_empty(self):
        assert len(pendant_minus_family(K3, 1)) == 0

    def test_pendant_expansion(self):
        h = expansion(K3, 3)
        fam1 = pendant_minus_family(h, 1)
        assert len(fam1) == 1
        assert fam1.members[0].edges == ((0, 2, 3), (1, 2, 4))
        assert len(pendant_minus_family(h, 2)) == 0

    def test_families_beyond_sixteen_vertices(self):
        # every edge of the expansion of K6 is 1-pendant and all are alike,
        # so both families are one 20-vertex class
        h = expansion(complete_graph(6), 3)
        for fam in (minus_family(h), pendant_minus_family(h, 1)):
            assert len(fam) == 1
            assert fam.members[0].n == 20 and fam.members[0].num_edges == 14

    @staticmethod
    def _unreduced(f, removable):
        # the plain definition: delete every removable edge, then dedupe
        def delete(e):
            g = make_hypergraph(f.n, f.r, [x for x in f.edges if x != e])
            return remove_vertices(g, [v for v in range(g.n) if g.degrees[v] == 0])

        return distinct_classes(map(delete, removable))

    def test_one_edge_per_orbit_matches_unreduced(self):
        # the orbit rule keeps the same members in the same order
        corpus = list(_small_corpus()) + [
            path_graph(3),
            make_hypergraph(6, 2, [(0, 1), (1, 2), (2, 3)]),
            make_hypergraph(6, 3, [(0, 2, 4), (2, 4, 5)]),
            *(expansion(b, r) for r in (3, 4)
              for b in (K3, complete_graph(4), cycle_graph(4), cycle_graph(5), path_graph(3))),
        ]
        for f in corpus:
            assert minus_family(f).members == self._unreduced(f, f.edges), f
            for k in range(1, f.r):
                pendant = [e for e in f.edges if sum(f.degrees[v] == 1 for v in e) >= k]
                assert pendant_minus_family(f, k).members == self._unreduced(f, pendant), f

    def test_pendant_k_range(self):
        with pytest.raises(ValueError):
            pendant_minus_family(K3, 2)
        with pytest.raises(ValueError):
            pendant_minus_family(K3, 0)


class TestTuran:
    def test_partition_shape(self):
        p = turan_partition(7, 3)
        assert p.sizes == (3, 2, 2)
        assert p.parts[0] == (0, 1, 2)
        assert p.part_of[6] == 2

    def test_count_matches_construction(self):
        for n in range(0, 13):
            for ell in range(2, 5):
                for r in (2, 3):
                    if ell > n:
                        continue
                    assert (
                        turan_hypergraph(n, ell, r).num_edges
                        == turan_count(n, ell, r)
                    )

    def test_graph_values(self):
        assert turan_count(8, 3, 2) == 21
        assert turan_count(7, 3, 3) == 12
        assert [turan_count(n, 2, 2) for n in range(2, 7)] == [1, 2, 4, 6, 9]

    def test_fewer_parts_than_uniformity_is_edgeless(self):
        assert turan_hypergraph(6, 2, 3).num_edges == 0
        assert turan_count(6, 2, 3) == 0


class TestSpecialBlowups:
    def test_min_t(self):
        for kind, tmin in (("alpha", 3), ("beta", 4), ("gamma", 2), ("plus", 2)):
            with pytest.raises(ValueError):
                special_blowup_graph(kind, 2, tmin - 1)

    def test_edge_counts(self):
        for kind, extra in (("alpha", 2), ("beta", 2), ("gamma", 2), ("plus", 1)):
            t = 4
            h = special_blowup_graph(kind, 3, t)
            assert h.num_edges == 3 * t * t + extra

    def test_alpha_shares_a_vertex(self):
        with pytest.warns(UserWarning):
            h = special_blowup_graph("alpha", 2, 3)
        extra = [e for e in h.edges if e[0] // 3 == e[1] // 3]
        assert extra == [(0, 1), (1, 2)]

    def test_beta_disjoint_pair(self):
        h = special_blowup_graph("beta", 2, 4)
        extra = [e for e in h.edges if e[0] // 4 == e[1] // 4]
        assert extra == [(0, 1), (2, 3)]

    def test_gamma_two_parts(self):
        h = special_blowup_graph("gamma", 2, 4)
        extra = [e for e in h.edges if e[0] // 4 == e[1] // 4]
        assert extra == [(0, 1), (4, 5)]

    def test_plus_single_extra(self):
        h = special_blowup_graph("plus", 2, 2)
        assert h.num_edges == 4 + 1

    def test_small_t_warns(self):
        with pytest.warns(UserWarning):
            special_blowup_graph("alpha", 2, 3)
        with pytest.warns(UserWarning):
            special_blowup_graph("gamma", 2, 2)

    def test_large_t_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            special_blowup_graph("beta", 2, 4)
            special_blowup_graph("plus", 2, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            special_blowup_graph("delta", 2, 4)


class TestNamed:
    def test_descriptors(self):
        assert named_hypergraph("K3") == K3
        assert named_hypergraph("P3") == P3
        assert named_hypergraph("P4") == path_graph(4)
        assert named_hypergraph("C6") == cycle_graph(6)
        assert named_hypergraph("single-edge").num_edges == 1
        assert named_hypergraph("triple").r == 3

    def test_unknown(self):
        with pytest.raises(ValueError):
            named_hypergraph("Q5")

    def test_complete_hypergraph(self):
        assert complete_hypergraph(5, 3).num_edges == comb(5, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: blowup(path_graph(2), 0), "blowup factor must be >= 1, got 0"),
        (lambda: split_vertex(path_graph(2), 3), "vertex 3 out of range"),
        (lambda: turan_partition(5, 0), "need ell >= 1 and n >= 0"),
        (lambda: special_blowup_graph("alpha", 1, 4), "need ell >= 2, got 1"),
        (lambda: path_graph(0), "path needs at least one edge"),
        (lambda: cycle_graph(2), "cycle needs at least three vertices"),
        (lambda: named_hypergraph("K1"), "K<m> needs m >= 2"),
    ],
    ids=["blowup", "split_vertex", "turan_partition", "special_blowup_graph",
         "path_graph", "cycle_graph", "named_hypergraph"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
