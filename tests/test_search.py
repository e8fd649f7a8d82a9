import json
import random
import time
from collections import Counter
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arl import formats
from arl.canonical import stabilizer_orbits
from arl.constructions import (
    complete_graph,
    complete_hypergraph,
    cycle_graph,
    expansion,
    minus_family,
    path_graph,
    single_edge,
    turan_count,
)
from arl.coloring import find_rainbow_copy, make_coloring
from arl.hypergraph import has_copy, kn_edges, make_family, make_hypergraph, vertex_mask
from arl.search import (
    SearchBudget,
    _VALUES,
    _branch_and_bound,
    _bump,
    _copy_tables,
    _deficit,
    _raises,
    _solve,
    _vetoed,
    exact_anti_ramsey,
    exact_turan,
    verify_feasibility,
)
from helpers import (
    brute_ar,
    brute_ex,
    copy_host,
    copy_table,
    naive_copy_rows,
    naive_has_copy,
    naive_has_rainbow,
    set_partitions,
    vetoed_by_sets,
)

K3 = complete_graph(3)
K4 = complete_graph(4)
C4 = cycle_graph(4)
DIAMOND = make_hypergraph(4, 2, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
BOOK3 = make_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])
K4_3 = complete_hypergraph(4, 3)


# the anti-Ramsey values with the fresh color last, the plain restricted
# growth string order, against which the solver's fresh-first order is checked
FRESH_LAST = lambda top: range(top + 1)  # noqa: E731


def most_leaf():
    """A leaf at threshold 0, which no bound can cut, and the list holding
    the largest color count it was handed (-1 before any)."""
    most = [-1]

    def leaf(val, c):
        most[0] = max(most[0], c)
        return 0

    return leaf, most


def climb_leaf():
    """The leaf of _solve's climb, which keeps each leaf it is handed and
    sets the threshold one above it, and the list [best, values] it fills."""
    kept = [-1, None]

    def leaf(val, c):
        kept[:] = c, tuple(val)
        return c + 1

    return leaf, kept


def unbounded_ar(n, pattern, values=_VALUES["anti_ramsey"]):
    """The anti-Ramsey loop at threshold 0, as (status, most, nodes): most is
    the largest rainbow-free color count, one less than ar."""
    leaf, most = most_leaf()
    status, nodes = _branch_and_bound(n, pattern.r, copy_host(n, [pattern]), values, leaf)
    return status, most[0], nodes


def random_pattern(rng, r, max_v=5):
    n = rng.randint(r, max_v)
    pool = kn_edges(n, r)
    edges = rng.sample(pool, rng.randint(1, min(4, len(pool))))
    return make_hypergraph(n, r, edges)


class TestExactTuran:
    def test_triangle_free_is_turan(self):
        for n in range(3, 8):
            rep = exact_turan(n, [K3])
            assert rep.status == "exact"
            assert rep.value == turan_count(n, 2, 2) == n * n // 4

    def test_k4_small(self):
        for n in range(4, 7):
            assert exact_turan(n, [K4]).value == turan_count(n, 3, 2)

    def test_diamond(self):
        assert exact_turan(5, [DIAMOND]).value == 6

    def test_matching(self):
        # no two disjoint edges: max is a star, n-1 edges
        m2 = make_hypergraph(4, 2, [(0, 1), (2, 3)])
        for n in (4, 5, 6):
            assert exact_turan(n, [m2]).value == n - 1

    def test_single_edge_pattern(self):
        rep = exact_turan(4, [single_edge(2)])
        assert rep.value == 0 and rep.witness.num_edges == 0

    def test_family_vs_members(self):
        fam = minus_family(K4)
        rep = exact_turan(5, fam)
        assert rep.value == brute_ex(5, list(fam), 2)

    def test_r3_values(self):
        # cherry-free means any two triples share at most one vertex, a
        # packing; on 5 points two blocks is the max
        cherry = make_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])
        assert exact_turan(5, [cherry]).value == brute_ex(5, [cherry], 3) == 2
        k43 = complete_hypergraph(4, 3)
        assert exact_turan(5, [k43]).value == brute_ex(5, [k43], 3)

    def test_witness_is_feasible_and_optimal_size(self):
        rep = exact_turan(6, [K3])
        assert rep.witness.num_edges == rep.value
        assert not has_copy(K3, rep.witness)
        assert verify_feasibility(rep)

    def test_against_brute_random(self):
        rng = random.Random(77)
        for _ in range(25):
            r = rng.choice([2, 3])
            f = random_pattern(rng, r)
            n = rng.randint(r, 5)
            rep = exact_turan(n, [f])
            assert rep.value == brute_ex(n, [f], r), (n, f.edges)
            assert verify_feasibility(rep)

    def test_deterministic(self):
        a = exact_turan(6, [K3])
        b = exact_turan(6, [K3])
        assert a.value == b.value and a.witness == b.witness and a.nodes == b.nodes

    def test_first_edge_rule_against_brute(self):
        # the search keeps edge 0 in every leaf; the brute-force oracle has no
        # such rule, so a case the rule gets wrong shows up as a lower value
        fixed = [
            (0, [K3]),
            (1, [single_edge(2)]),
            (3, [single_edge(2)]),
            (4, [single_edge(3)]),
            (4, [make_hypergraph(5, 2, [(0, 1)])]),  # single edge, isolated vertices
            (5, [make_hypergraph(6, 2, [(0, 1), (1, 2)])]),  # isolated vertices
            (5, [make_hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)])]),
            (5, [make_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)]), complete_hypergraph(4, 3)]),
            (5, [K3, make_hypergraph(4, 2, [(0, 1), (2, 3)])]),
            (5, [path_graph(3), cycle_graph(4), K4]),
        ]
        rng = random.Random(2718)
        cases = fixed + [
            (rng.randint(0, 5), [random_pattern(rng, r) for _ in range(rng.randint(1, 3))])
            for r in (2, 3)
            for _ in range(10)
        ]
        for n, fam in cases:
            r = fam[0].r
            rep = exact_turan(n, fam)
            assert rep.value == brute_ex(n, fam, r), (n, [f.edges for f in fam])
            assert verify_feasibility(rep)
            if rep.value:
                assert kn_edges(n, r)[0] in rep.witness.edge_set

    @pytest.mark.parametrize(
        "n, fam, minimal",
        [pytest.param(n, [K3, K4], [K3], id=f"K3,K4-{n}") for n in range(4, 9)]
        + [
            pytest.param(5, [K4, K3], [K3], id="K4,K3-5"),
            pytest.param(7, [C4, K4], [C4], id="C4,K4-7"),
            pytest.param(6, [BOOK3, K4_3], [BOOK3], id="book3,K4^3-6"),
            pytest.param(7, [BOOK3, K4_3], [BOOK3], id="book3,K4^3-7"),
        ],
    )
    def test_nested_members_match_the_minimal_family(self, n, fam, minimal):
        # every member is in the copy table, but a member that contains
        # another vetoes nothing the smaller one does not (see _copy_tables),
        # so the search is the one for the minimal members alone
        b = exact_turan(n, fam)
        a = exact_turan(n, minimal)
        assert b.status == a.status == "exact"
        assert (b.value, b.nodes) == (a.value, a.nodes)
        assert b.witness.edges == a.witness.edges
        assert verify_feasibility(b)

    def test_time_budget(self):
        # the clock is read on the first node, so a run shorter than the
        # clock interval still stops
        rep = exact_turan(7, [K4], budget=SearchBudget(max_seconds=1e-9))
        assert rep.status == "budget_exhausted" and rep.value is None

    def test_budget_exhaustion(self):
        rep = exact_turan(7, [K4], budget=SearchBudget(max_nodes=50))
        assert rep.status == "budget_exhausted"
        assert rep.value is None
        assert rep.nodes <= 50 + 1
        if rep.witness is not None:
            assert not has_copy(K4, rep.witness)

    def test_edgeless_member_rejected(self):
        with pytest.raises(ValueError):
            exact_turan(4, [make_hypergraph(3, 2, [])])

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            exact_turan(-1, [K3])

    def test_uniformity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            exact_turan(4, [K3, single_edge(3)])

    @pytest.mark.parametrize("n, r", [(0, 2), (3, 2), (5, 2), (4, 3), (2, 3)])
    def test_empty_family_forbids_nothing(self, n, r):
        # a Family names its r, so an empty one is solved: every edge of
        # K_n^r is chosen, one node each
        rep = exact_turan(n, make_family([], r=r))
        assert rep.status == "exact"
        assert rep.value == rep.nodes == brute_ex(n, [], r) == comb(n, r)
        assert rep.witness.edge_set == set(kn_edges(n, r))
        assert verify_feasibility(rep)
        assert formats.report_from_json(json.loads(formats.dumps(formats.report_to_json(rep)))) == rep

    def test_empty_list_needs_a_uniformity(self):
        with pytest.raises(ValueError, match="explicit uniformity"):
            exact_turan(5, [])


class TestExactAntiRamsey:
    def test_triangle_small(self):
        assert exact_anti_ramsey(3, K3).value == 3
        assert exact_anti_ramsey(4, K3).value == 4
        assert exact_anti_ramsey(5, K3).value == 5

    def test_k4_small(self):
        assert exact_anti_ramsey(4, K4).value == 6
        assert exact_anti_ramsey(5, K4).value == 8

    def test_path(self):
        for n in (2, 3, 4):
            assert exact_anti_ramsey(n, single_edge(2)).value == 1
        assert exact_anti_ramsey(3, path_graph(2)).value == 2
        assert exact_anti_ramsey(4, path_graph(2)).value == 2

    def test_single_edge_no_witness(self):
        rep = exact_anti_ramsey(4, single_edge(2))
        assert rep.value == 1 and rep.witness is None
        assert verify_feasibility(rep)

    def test_witness_quality(self):
        rep = exact_anti_ramsey(4, K3)
        chi = rep.witness
        assert chi.num_colors == rep.value - 1
        assert find_rainbow_copy(chi, K3) is None
        assert verify_feasibility(rep)

    def test_against_brute_random(self):
        rng = random.Random(99)
        tried = 0
        while tried < 12:
            r = rng.choice([2, 3])
            n = rng.randint(r, 4)
            if comb(n, r) > 6:
                continue
            f = random_pattern(rng, r, max_v=n)
            tried += 1
            rep = exact_anti_ramsey(n, f)
            assert rep.value == brute_ar(n, f), (n, f.edges)
            assert verify_feasibility(rep)

    def test_threshold_zero_walk_agrees(self):
        _, best, nodes = unbounded_ar(4, K3)
        b = exact_anti_ramsey(4, K3)
        assert best + 1 == b.value
        assert b.nodes <= nodes

    def test_leaf_count_is_bell(self):
        # with pattern too big to embed and the bound off, the nodes above the
        # last edge are the Bell(j) partitions of the shorter prefixes, so the
        # rest, the leaves, are the set partitions of all 6 edges
        big = complete_graph(5)
        _, best, nodes = unbounded_ar(4, big)
        assert nodes - sum(bell(j) for j in range(1, 6)) == 203  # Bell(6)
        assert best + 1 == exact_anti_ramsey(4, big).value == comb(4, 2) + 1

    def test_budget_exhaustion(self):
        rep = exact_anti_ramsey(5, K4, budget=SearchBudget(max_nodes=100))
        assert rep.status == "budget_exhausted" and rep.value is None
        if rep.witness is not None:
            assert find_rainbow_copy(rep.witness, K4) is None

    def test_time_budget(self):
        # the clock is read on the first node, so a run shorter than the
        # clock interval still stops
        rep = exact_anti_ramsey(5, K4, budget=SearchBudget(max_seconds=1e-9))
        assert rep.status == "budget_exhausted"

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            exact_anti_ramsey(4, make_hypergraph(3, 2, []))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            exact_anti_ramsey(-1, K3)

    def test_trivial_host(self):
        # K_2^2 has one edge; coloring it anything is surjective with 1 color
        rep = exact_anti_ramsey(2, K3)
        assert rep.value == 2  # 1-coloring is rainbow-K3-free, so ar = 1+1
        assert rep.witness.num_colors == 1


def test_budget_exhaustion_on_deep_host():
    # C(50,2) = 1225 edge decisions: deeper than the interpreter's default
    # recursion limit, so the budget has to trip first
    budget = SearchBudget(max_nodes=5000)
    ex_rep = exact_turan(50, [K3], budget=budget)
    ar_rep = exact_anti_ramsey(50, K3, budget=budget)
    assert ex_rep.status == ar_rep.status == "budget_exhausted"
    assert ex_rep.value is None and ar_rep.value is None
    assert verify_feasibility(ex_rep) and verify_feasibility(ar_rep)


HK4 = expansion(K4, 3)  # 10 vertices, 151,200 copies in K_10^3


@pytest.mark.parametrize(
    "solve",
    [
        lambda budget: exact_turan(10, [HK4], budget=budget),
        lambda budget: exact_anti_ramsey(10, HK4, budget=budget),
    ],
    ids=["turan", "anti_ramsey"],
)
def test_time_budget_covers_the_copy_table(solve):
    # building the table takes longer than the budget, so the build reads
    # the deadline too and the run stops before its first node
    start = time.monotonic()
    rep = solve(SearchBudget(max_seconds=0.2))
    assert time.monotonic() - start < 1.0
    assert rep.status == "budget_exhausted" and rep.value is None and rep.nodes == 0
    assert verify_feasibility(rep)


def complete_bipartite(a, b):
    return make_hypergraph(a + b, 2, [(i, a + j) for i in range(a) for j in range(b)])


HK5 = expansion(complete_graph(5), 3)  # 15 vertices
HK33 = expansion(complete_bipartite(3, 3), 3)  # 15 vertices
HK44 = expansion(complete_bipartite(4, 4), 3)  # 24 vertices, 1,152 automorphisms
HK55 = expansion(complete_bipartite(5, 5), 3)  # 35 vertices


def test_time_budget_covers_a_family():
    # a solve reads its budget from its first step, so no work on these two
    # 15-vertex members runs before the clock is read
    start = time.monotonic()
    rep = exact_turan(15, [HK5, HK33], budget=SearchBudget(max_seconds=0.1))
    assert time.monotonic() - start < 1.0
    assert rep.status == "budget_exhausted" and rep.value is None


def test_verify_feasibility_on_an_empty_witness_is_fast():
    # the checker's has_copy places the padding vertex of an edge third, so
    # on an edgeless host it fails after 15 * 14 * 13 placements, not P(15, 5)
    rep = exact_turan(15, [HK5, HK33], budget=SearchBudget(max_seconds=0.1))
    start = time.monotonic()
    assert verify_feasibility(rep)
    assert time.monotonic() - start < 2.0


@pytest.mark.parametrize(
    "solve",
    [
        lambda budget: exact_turan(24, [HK44], budget=budget),
        lambda budget: exact_anti_ramsey(24, HK44, budget=budget),
    ],
    ids=["turan", "anti_ramsey"],
)
def test_time_budget_covers_the_symmetry_setup(solve):
    # the clock does not interrupt the coset setup, so the setup itself must
    # fit well inside the budget; listing the copies of HK44 in K_24^3 does
    # not, and reads the deadline at every copy, so the run stops before its
    # first node
    start = time.monotonic()
    stabilizer_orbits(HK44, HK44.non_isolated)
    assert time.monotonic() - start < 0.1
    start = time.monotonic()
    rep = solve(SearchBudget(max_seconds=0.2))
    assert time.monotonic() - start < 1.0
    assert rep.status == "budget_exhausted" and rep.value is None and rep.nodes == 0


def test_copy_tables_read_the_clock_before_the_first_table():
    # the clock does not interrupt the coset setup but is read after it, so
    # a setup that ends past the deadline yields no table
    tables = _copy_tables(5, make_family([K3]), deadline=time.monotonic() - 1)
    assert next(tables) is None
    assert next(tables, "stopped") == "stopped"


@st.composite
def small_families(draw):
    """A host size n <= 8 and one to three members of one uniformity r in
    1..3, each on r..r+2 vertices with one to four edges, so members share
    or differ in their number of non-isolated vertices, and one- and
    two-edge members occur."""
    r = draw(st.integers(1, 3), label="r")
    members = []
    for i in range(draw(st.integers(1, 3), label="members")):
        pool = kn_edges(draw(st.integers(r, r + 2), label=f"vertices of {i}"), r)
        edges = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=min(4, len(pool)),
                              unique=True), label=f"edges of {i}")
        members.append(make_hypergraph(max(map(max, edges)) + 1, r, edges))
    return draw(st.integers(r, 8), label="n"), members


PATH2 = make_hypergraph(3, 2, [(0, 1), (1, 2)])


@settings(max_examples=150, deadline=None)
@given(small_families())
@example((8, [single_edge(2), PATH2]))
@example((8, [PATH2, K3, make_hypergraph(4, 2, [(0, 1), (2, 3)])]))
@example((8, [make_hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)]), single_edge(3)]))
def test_copy_table_rows_against_brute_listing(case):
    # each member's copies are listed once on its own vertices and relabeled
    # onto every larger vertex set, so every row holds the same copies, as a
    # multiset, as a brute-force listing of all of them
    n, members = case
    table = copy_table(n, members)
    assert [Counter(row) for row in table] == naive_copy_rows(n, members)


@st.composite
def host_families(draw):
    """A host size n <= 9 and one or two members of one uniformity r in
    1..4, each on r..r+2 vertices with one or two edges."""
    r = draw(st.integers(1, 4), label="r")
    members = []
    for i in range(draw(st.integers(1, 2), label="members")):
        pool = kn_edges(draw(st.integers(r, r + 2), label=f"vertices of {i}"), r)
        edges = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True),
                     label=f"edges of {i}")
        members.append(make_hypergraph(max(map(max, edges)) + 1, r, edges))
    return draw(st.integers(0, 9), label="n"), members


@settings(max_examples=100, deadline=None)
@given(host_families())
@example((9, [complete_hypergraph(4, 4)]))
@example((9, [single_edge(1)]))
def test_grown_host_against_a_fresh_build(case):
    # each rung's host grows the last one's lists in place, so the masks and
    # the running maximum of edges per vertex are checked before the next
    # rung appends to them
    n, members = case
    r = members[0].r
    for k, (table, masks, most) in enumerate(_copy_tables(n, make_family(members))):
        edges = kn_edges(k, r)
        assert masks == [vertex_mask(e) for e in edges]
        at, fresh = [0] * k, []
        for e in edges:
            for v in e:
                at[v] += 1
            fresh.append(max(at))
        assert most == fresh
        assert len(table) == len(edges)


@st.composite
def veto_cases(draw):
    """(a row of copies, val, c) over at most 8 edges, with colors drawn from
    a palette that holds one of 64 or more, so the bits of the colors met
    outgrow a machine word."""
    palette = draw(st.lists(st.integers(0, 300), max_size=5), label="palette")
    palette.append(draw(st.integers(64, 300), label="wide color"))
    M = draw(st.integers(1, 8), label="edges")
    val = draw(st.lists(st.none() | st.sampled_from(palette), min_size=M, max_size=M), label="val")
    others = st.lists(st.integers(0, M - 1), max_size=4, unique=True).map(lambda o: tuple(sorted(o)))
    return draw(st.lists(others, max_size=5), label="row"), val, draw(st.sampled_from(palette), label="c")


@settings(max_examples=400, deadline=None)
@given(veto_cases())
@example(([(0, 1)], [64, 128], 0))
@example(([(0, 1)], [64, 128], 128))
@example(([(0,), (1, 2)], [999, 0, 1000], 999))
def test_veto_against_set_reference(case):
    assert _vetoed(*case) == vetoed_by_sets(*case)


def test_relabeling_reads_the_clock_per_vertex_set():
    # C5 has 12 copies on its own five vertices and 1.7 million in K_30^2,
    # listed by relabeling onto every vertex set; the clock is read at each
    start = time.monotonic()
    *_, last = _copy_tables(30, make_family([cycle_graph(5)]), deadline=start + 0.05)
    assert last is None
    assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("n, member", [(24, HK44), (35, HK55)], ids=["HK44", "HK55"])
def test_node_budget_covers_the_symmetry_setup(n, member):
    # with no clock to read, the coset setup of a 24- or 35-vertex expansion
    # of a complete bipartite graph must still be quick: the node cap stops
    # the run at a rung where only K4^3 fits
    start = time.monotonic()
    rep = exact_turan(n, [complete_hypergraph(4, 3), member], budget=SearchBudget(max_nodes=10))
    assert time.monotonic() - start < 1.0
    assert rep.status == "budget_exhausted" and rep.value is None and rep.nodes == 11


def test_member_larger_than_the_host_is_not_set_up():
    # HK44 has 24 vertices, so no copy fits in K_8^3 and every triple is kept
    start = time.monotonic()
    rep = exact_turan(8, [HK44])
    assert time.monotonic() - start < 1.0
    assert rep.status == "exact" and rep.value == comb(8, 3) == 56
    assert verify_feasibility(rep)


@pytest.mark.parametrize(
    "solve",
    [
        lambda budget: exact_turan(120, [K3], budget=budget),
        lambda budget: exact_anti_ramsey(120, K3, budget=budget),
    ],
    ids=["turan", "anti_ramsey"],
)
def test_node_budget_bounds_the_copy_table(solve):
    # K_120^3 holds 280,840 triangles, but the rungs a node cap reaches need
    # only the copies on their own few vertices
    start = time.monotonic()
    rep = solve(SearchBudget(max_nodes=10))
    assert time.monotonic() - start < 1.0
    assert rep.status == "budget_exhausted" and rep.nodes == 11
    assert verify_feasibility(rep)


def test_loop_reads_the_clock_by_work():
    # an anti-Ramsey node on this table scans thousands of copies, so a
    # clock read every fixed number of nodes would overshoot by seconds
    host = copy_host(10, [HK4])
    start = time.monotonic()
    status, nodes = _branch_and_bound(
        10, 3, host, _VALUES["anti_ramsey"], climb_leaf()[0], deadline=start + 0.2
    )
    assert time.monotonic() - start < 1.0
    assert status == "budget_exhausted" and nodes > 1


def bell(m):
    return sum(1 for _ in set_partitions(m))


@pytest.mark.parametrize("n", [3, 4])
def test_node_is_one_value_tried(n):
    # K5 never fits in K_n, so no value is vetoed and every value tried is a
    # node.  ex: no rung below n is searched, so the rung below gives
    # C(n-1, 2) and the global cap n*C(n-1, 2) // (n-2) is M; the first,
    # greedy leaf takes every edge, one node per edge, and reaches the cap,
    # which stops the run.  ar without the bound: every restricted growth
    # string prefix of length j is one node, so the Bell(M) partitions of the
    # edge set are the nodes at the last edge, whichever order an edge's
    # values are tried in.
    M = comb(n, 2)
    ex = exact_turan(n, [complete_graph(5)])
    assert (ex.value, ex.nodes) == (M, M)
    for values in (_VALUES["anti_ramsey"], FRESH_LAST):
        _, best, nodes = unbounded_ar(n, complete_graph(5), values)
        assert (best, nodes) == (M, sum(bell(j) for j in range(1, M + 1)))
    assert exact_anti_ramsey(n, complete_graph(5)).value == M + 1


BUDGET_CASES = [
    (5, [K3]),
    (5, [DIAMOND]),
    (6, [K3, cycle_graph(5)]),
    (5, [make_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])]),
    (4, [K4]),
    (4, [path_graph(3)]),
    (5, [complete_hypergraph(4, 3)]),
    (3, [single_edge(2)]),
]


@pytest.mark.parametrize(
    "solve",
    [
        lambda n, fam, budget=None: exact_turan(n, fam, budget=budget),
        lambda n, fam, budget=None: exact_anti_ramsey(n, fam[0], budget=budget),
    ],
    ids=["turan", "anti_ramsey"],
)
@pytest.mark.parametrize("n, fam", BUDGET_CASES)
def test_budget_gives_exact_or_feasible_best_so_far(solve, n, fam):
    # the search is deterministic and a budgeted run is a prefix of the full
    # run, so a cap of k nodes is exact iff the full run needs at most k
    full = solve(n, fam)
    assert full.status == "exact"
    rng = random.Random(len(fam) * 100 + n)
    caps = {0, 1, full.nodes - 1, full.nodes, full.nodes + 1}
    caps |= {rng.randrange(full.nodes + 1) for _ in range(6)}
    for k in sorted(c for c in caps if c >= 0):
        rep = solve(n, fam, SearchBudget(max_nodes=k))
        if k >= full.nodes:
            assert rep.status == "exact"
            assert (rep.value, rep.witness, rep.nodes) == (full.value, full.witness, full.nodes)
            continue
        assert rep.status == "budget_exhausted" and rep.value is None
        assert rep.nodes == k + 1
        # only an anti-Ramsey run stopped before its first leaf has no witness,
        # and such a report claims nothing, so it is feasible too
        if rep.witness is None:
            assert rep.instance["problem"] == "anti_ramsey"
        assert verify_feasibility(rep), k


@pytest.mark.parametrize(
    "solve, nodes",
    [
        (lambda: exact_turan(7, [K4]), 137),
        (lambda: exact_turan(6, [complete_hypergraph(4, 3)]), 178),
        (lambda: exact_anti_ramsey(5, K4), 421),
        (lambda: exact_anti_ramsey(5, cycle_graph(4)), 622),
        (lambda: exact_anti_ramsey(5, complete_hypergraph(4, 3)), 189),
        (lambda: exact_turan(8, [K3]), 276),
        (lambda: exact_turan(7, [K3, cycle_graph(5)]), 152),
        (lambda: exact_anti_ramsey(6, K3), 124),
        (lambda: exact_anti_ramsey(7, K3), 230),
        (lambda: exact_anti_ramsey(7, K4), 7049),
        (lambda: exact_anti_ramsey(8, K3), 391),
    ],
    ids=["ex(7,K4)", "ex(6,K4^3)", "ar(5,K4)", "ar(5,C4)", "ar(5,K4^3)",
         "ex(8,K3)", "ex(7,{K3,C5})", "ar(6,K3)", "ar(7,K3)", "ar(7,K4)", "ar(8,K3)"],
)
def test_node_counts_pinned(solve, nodes):
    # solver node counts, summed over the rungs of the climb, are
    # deterministic; a change in how the host is read must leave them alone,
    # and only a change to pruning, symmetry breaking or what counts as a
    # node may move them
    rep = solve()
    assert rep.status == "exact"
    assert rep.nodes == nodes


def walk_the_loop(data, check):
    """A random walk of the loop's slack bookkeeping over K_n^r, r in 1..3.

    Each step applies a value to the next edge (None, a fresh color or an
    old one) or undoes the last one, with the rules of _branch_and_bound.
    After each applied value it calls check(n, r, edges, vals, common,
    slack, deficit, peak, raised): peak is max(slack) before the value,
    raised what _raises said of it (False for a fresh color), and deficit
    the sum of what the old colors' _bump calls returned, undone on the way
    back."""
    r = data.draw(st.integers(1, 3), label="r")
    n = data.draw(st.integers(r, 6), label="n")
    edges = kn_edges(n, r)
    slack, common, olds, tops, vals, deficit = [0] * n, [], [], [], [], 0
    for _ in range(data.draw(st.integers(0, 3 * len(edges)), label="steps")):
        if vals and (len(vals) == len(edges) or data.draw(st.booleans(), label="undo")):
            c, top, e, old = vals.pop(), tops.pop(), edges[len(vals)], olds.pop()
            if c == top:
                common.pop()
            else:
                for v in e:
                    slack[v] -= 1
                if c is not None:
                    deficit -= _bump(slack, old & ~common[c], -1)
                    common[c] = old
            continue
        e, top = edges[len(vals)], len(common)
        mask = vertex_mask(e)
        c = data.draw(st.sampled_from([top, None, *range(top)]), label=f"value of {e}")
        peak, old = max(slack), None if c is None or c == top else common[c]
        raised = c != top and _raises(slack, peak, mask if old is None else mask | old)
        if c == top:
            common.append(mask)
        else:
            for v in e:
                slack[v] += 1
            if old is not None:
                common[c] &= mask
                assert _bump(slack, old & ~mask, 1) == _deficit(old, mask)
                deficit += _deficit(old, mask)
        vals.append(c)
        tops.append(top)
        olds.append(old)
        check(n, r, edges, vals, common, slack, deficit, peak, raised)


def recount(n, edges, vals):
    """(the AND of each color's vertex masks, the decided edges at each vertex)
    recounted from the values of the first len(vals) edges."""
    common = {}
    for e, c in zip(edges, vals):
        if c is not None:
            common[c] = common.get(c, vertex_mask(e)) & vertex_mask(e)
    at = [sum(v in e for e in edges[: len(vals)]) for v in range(n)]
    return [common[c] for c in sorted(common)], at


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_slack_against_recount(data):
    # slack[v], kept in O(r) per value, is the decided edges at v less the
    # colors whose edges all contain v; summed over v it is r*(decided
    # edges) - r*(colors) + D, with the deficit D = sum of r - |common_c|
    # that the old colors' _bump calls charged room
    def check(n, r, edges, vals, common, slack, deficit, peak, raised):
        kept, at = recount(n, edges, vals)
        assert common == kept
        assert slack == [at[v] - sum(m >> v & 1 for m in kept) for v in range(n)]
        assert deficit == sum(r - m.bit_count() for m in kept)
        assert sum(slack) == r * len(vals) - r * len(kept) + deficit

    walk_the_loop(data, check)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_peak_and_raise_against_recount(data):
    # a value raises max(slack) by at most one, and by one exactly when
    # _raises finds a raised vertex at the peak before it
    def check(n, r, edges, vals, common, slack, deficit, peak, raised):
        kept, at = recount(n, edges, vals)
        most = max(a - sum(m >> v & 1 for m in kept) for v, a in enumerate(at))
        assert peak + raised == most == max(slack)

    walk_the_loop(data, check)


def run_loop(n, fam, turan, below=None, values=None, **budget):
    """The loop on n vertices with the solver's values, or the given ones,
    and the climb's leaf, leaning on below when it is given, as (status,
    best, values, nodes)."""
    values = values or _VALUES["turan" if turan else "anti_ramsey"]
    leaf, kept = climb_leaf()
    status, nodes = _branch_and_bound(n, fam[0].r, copy_host(n, fam), values, leaf, below, **budget)
    return status, *kept, nodes


CHERRY = make_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])
LADDER_CORPUS = [
    (4, [K3]),
    (5, [K3]),
    (5, [DIAMOND]),
    (4, [K4]),  # does not fit in n - 1
    (5, [complete_graph(5)]),  # does not fit in n - 1
    (5, [K3, make_hypergraph(4, 2, [(0, 1), (2, 3)])]),
    (5, [path_graph(3), cycle_graph(4)]),
    (5, [make_hypergraph(6, 2, [(0, 1), (1, 2)])]),  # isolated vertices
    (4, [single_edge(2)]),
    (5, [make_hypergraph(5, 2, [(0, 1)])]),  # single edge, isolated vertices
    (4, [CHERRY]),
    (5, [CHERRY]),
    (5, [complete_hypergraph(4, 3)]),
    (5, [make_hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)])]),  # does not fit in n - 1
    (4, [single_edge(3)]),
]


def check_ladder_cuts(turan, n, fam):
    # below is the value on n - 1 vertices; the cuts drop only leaves no
    # better than the best so far, so the cut run reaches the unaided run's
    # value and witness, in no more nodes
    below = run_loop(n - 1, fam, turan)[1]
    plain_status, plain_best, plain_values, plain_nodes = run_loop(n, fam, turan)
    cut_status, cut_best, cut_values, cut_nodes = run_loop(n, fam, turan, below)
    assert plain_status == cut_status == "exact"
    assert (cut_best, cut_values) == (plain_best, plain_values)
    assert cut_nodes <= plain_nodes
    r = fam[0].r
    if turan:
        assert cut_best == brute_ex(n, fam, r)
    elif len(fam) == 1 and comb(n, r) <= 6:
        assert max(cut_best, 0) + 1 == brute_ar(n, fam[0])


@pytest.mark.parametrize("turan", [True, False], ids=["turan", "anti_ramsey"])
@pytest.mark.parametrize("n, fam", LADDER_CORPUS)
def test_ladder_cuts_against_unaided_and_brute(turan, n, fam):
    check_ladder_cuts(turan, n, fam)


def test_ladder_cuts_against_unaided_and_brute_on_random_patterns():
    # the deficit cap fires only where a color is reused, that is on
    # anti-Ramsey runs; a single-edge member leaves no leaf and nothing to cut
    rng = random.Random(2606)
    for r in (2, 3):
        done = 0
        while done < 20:
            n = rng.randint(r + 1, 6 if r == 2 else 5)
            fam = [random_pattern(rng, r, max_v=n) for _ in range(rng.randint(1, 2))]
            if min(f.num_edges for f in fam) > 1:
                check_ladder_cuts(False, n, fam)
                done += 1


# (pattern, the n of its turan walks, the n of its anti-Ramsey walks), each
# walk at threshold 0 under 40,000 nodes
THRESHOLD_ZERO_CASES = [
    (K3, (3, 4, 5, 6), (3, 4, 5)),
    (C4, (3, 4, 5, 6), (3, 4, 5)),
    (K4, (3, 4, 5, 6), (3, 4)),
    (complete_graph(5), (3, 4, 5), (3, 4)),
    (K4_3, (4, 5), (4,)),
    (BOOK3, (4, 5, 6), (4, 5, 6)),
]


@pytest.mark.parametrize("turan", [True, False], ids=["turan", "anti_ramsey"])
@pytest.mark.parametrize("f, ex_ns, ar_ns", THRESHOLD_ZERO_CASES,
                         ids=["K3", "C4", "K4", "K5", "K4^3", "book"])
def test_threshold_zero_cuts_nothing(turan, f, ex_ns, ar_ns):
    # at t = 0 best is -1: the color-count bound never fires, the star cut
    # needs below + deg - max(slack) < 0 and the deficit cap room < 0, which
    # a below of at least the true value A(n - 1) rules out; so the walk, its
    # nodes and its largest leaf, is the one without below
    values = _VALUES["turan" if turan else "anti_ramsey"]
    for n in ex_ns if turan else ar_ns:
        host = copy_host(n, [f])
        A = run_loop(n - 1, [f], turan)[1]
        walks = set()
        for below in (None, A, A + 1, comb(n - 1, f.r)):
            leaf, most = most_leaf()
            status, nodes = _branch_and_bound(n, f.r, host, values, leaf, below)
            walks.add((status, nodes, most[0]))
        assert len(walks) == 1, (n, walks)


def loop_leaves(n, fam, turan, below, t):
    """The leaves with at least t colors that the loop hands to a leaf that
    keeps the threshold at t, in the order they come."""
    got = []

    def leaf(val, c):
        if c >= t:
            got.append(tuple(val))
        return t

    values = _VALUES["turan" if turan else "anti_ramsey"]
    status, _ = _branch_and_bound(n, fam[0].r, copy_host(n, fam), values, leaf, below)
    assert status == "exact"
    return got


def brute_leaves(n, fam, turan):
    """Every leaf by brute force, as (values, color count): for turan the
    F-free edge sets, each edge its own color, that hold edge 0 unless edge 0
    alone is a copy (the first-edge rule); for anti_ramsey the restricted
    growth strings with no rainbow copy of the one member."""
    r = fam[0].r
    edges = kn_edges(n, r)
    out = []
    if turan:
        first = edges and not any(
            naive_has_copy(f, make_hypergraph(n, r, edges[:1])) for f in fam)
        for mask in range(1 << len(edges)):
            h = make_hypergraph(n, r, [e for i, e in enumerate(edges) if mask >> i & 1])
            if first and not mask & 1 or any(naive_has_copy(f, h) for f in fam):
                continue
            val, top = [], 0
            for i in range(len(edges)):
                val.append(top if mask >> i & 1 else None)
                top += mask >> i & 1
            out.append((tuple(val), top))
    else:
        for rgs in set_partitions(len(edges)):
            if not naive_has_rainbow(make_coloring(n, r, rgs), fam[0]):
                out.append((tuple(rgs), len(set(rgs))))
    return out


M2 = make_hypergraph(4, 2, [(0, 1), (2, 3)])
GRAPHS = {"K3": [K3], "C4": [C4], "P3": [path_graph(3)], "2K2": [M2], "diamond": [DIAMOND],
          "K4": [K4], "K2": [single_edge(2)]}
THREE_GRAPHS = {"book": [BOOK3], "K4^3": [K4_3], "K3^3": [single_edge(3)],
                "loose path": [make_hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)])]}
# every turan case has M <= 10 edges, every anti-Ramsey case M <= 6
FIXED_T_CASES = {
    **{f"ex({n},{name})": (True, n, fam) for n in (4, 5)
       for name, fam in [*GRAPHS.items(), ("{K3,2K2}", [K3, M2]), *THREE_GRAPHS.items()]},
    **{f"ar({n},{name})": (False, n, fam) for n in (3, 4) for name, fam in GRAPHS.items()},
    **{f"ar(4,{name})": (False, 4, fam) for name, fam in THREE_GRAPHS.items() if name != "loose path"},
}


@pytest.mark.parametrize("turan, n, fam", FIXED_T_CASES.values(), ids=FIXED_T_CASES)
def test_fixed_threshold_leaves_against_brute(turan, n, fam):
    # with t fixed, every leaf after the first has c >= t, and the cuts drop
    # only leaves with c <= t - 1: the leaves kept are every leaf with at
    # least t colors, each once, with and without the rung below's value
    brute = brute_leaves(n, fam, turan)
    A = max((c for _, c in brute), default=-1)
    A_below = run_loop(n - 1, fam, turan)[1]
    for below in (None, A_below):
        for t in range(A + 2):
            want = Counter(val for val, c in brute if c >= t)
            got = Counter(loop_leaves(n, fam, turan, below, t))
            assert got == want, (n, [f.edges for f in fam], below, t)


def solve_ar(n, fam, values):
    """_solve's anti-Ramsey path on a family, with the given values."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(_VALUES, "anti_ramsey", values)
        return _solve("anti_ramsey", n, make_family(fam), None)


def check_orders_agree(n, fam):
    # the cuts and the color-count bound drop only leaves no better than the
    # best so far, whichever order reached it, so the loop's best, with and
    # without the rung below, and the climb's value do not depend on the
    # order; each order's witness is feasible, and the oracle agrees
    orders = (_VALUES["anti_ramsey"], FRESH_LAST)
    below = run_loop(n - 1, fam, False)[1] if n > fam[0].r else None
    for b in {None, below}:
        runs = [run_loop(n, fam, False, b, values) for values in orders]
        assert {run[0] for run in runs} == {"exact"}
        assert runs[0][1] == runs[1][1], (n, [f.edges for f in fam], b)
    first, last = (solve_ar(n, fam, values) for values in orders)
    assert first.status == last.status == "exact"
    assert (first.value, first.instance) == (last.value, last.instance)
    assert verify_feasibility(first) and verify_feasibility(last)
    if len(fam) == 1 and comb(n, fam[0].r) <= 6:
        assert first.value == brute_ar(n, fam[0])


@pytest.mark.parametrize("n, fam", LADDER_CORPUS)
def test_value_order_moves_no_value(n, fam):
    check_orders_agree(n, fam)


def test_value_order_moves_no_value_on_random_patterns():
    rng = random.Random(4051)
    for r in (2, 3):
        for _ in range(20):
            n = rng.randint(r, 5)
            fam = [random_pattern(rng, r, max_v=n) for _ in range(rng.randint(1, 2))]
            check_orders_agree(n, fam)


def test_fresh_color_first_reaches_the_greedy_leaf_first():
    # K4 fits in neither 2 nor 3 vertices, so rung 4 leans on C(3, 2) = 3;
    # a fresh color on every edge but the last, which would close a rainbow
    # K4, is a leaf with 5 colors, reached in the first 7 nodes
    _, best, values, _ = run_loop(4, [K4], False, 3, max_nodes=7)
    assert best == 5 and values[:5] == (0, 1, 2, 3, 4)
    assert run_loop(4, [K4], False, 3, FRESH_LAST, max_nodes=7)[1] < 5


def test_single_edge_ladder_has_no_leaf():
    # every coloring has a rainbow single edge, so no rung has a leaf: rung r
    # tries color 0 on its one edge, and every rung above leans on -1 and
    # stops before its first node
    for r in (2, 3):
        rep = exact_anti_ramsey(r + 3, single_edge(r))
        assert (rep.value, rep.witness, rep.nodes) == (1, None, 1)
        assert rep.instance["below"] == -1
        assert verify_feasibility(rep)


# the value of the loop on k vertices, A(k): ex(k, F) edges, or ar(k, F) - 1
# colors, from the literature: Turan's theorem; Clapham, Flockhart & Sheehan
# (1989) for C4; C(k,3) - T(k,4,3) for K4^3; ar(k,K3) = k and
# ar(k,K4) = k^2 // 4 + 2 (Erdos-Simonovits-Sos); ar(k,C4) = 4k // 3 (Alon
# 1983).  Below the pattern's vertex count A(k) = C(k, r).
LADDERS = [
    ("turan", K3, {2: 1, 3: 2, 4: 4, 5: 6, 6: 9, 7: 12, 8: 16}),
    ("turan", K4, {2: 1, 3: 3, 4: 5, 5: 8, 6: 12, 7: 16, 8: 21}),
    ("turan", cycle_graph(4), {2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 9, 8: 11}),
    ("turan", complete_hypergraph(4, 3), {3: 1, 4: 3, 5: 7, 6: 14}),
    ("anti_ramsey", K3, {2: 1, 3: 2, 4: 3, 5: 4, 6: 5, 7: 6, 8: 7, 9: 8}),
    ("anti_ramsey", K4, {2: 1, 3: 3, 4: 5, 5: 7, 6: 10, 7: 13, 8: 17}),
    ("anti_ramsey", cycle_graph(4), {2: 1, 3: 3, 4: 4, 5: 5, 6: 7}),
    ("anti_ramsey", complete_hypergraph(4, 3), {3: 1, 4: 3, 5: 6}),
]


@pytest.mark.parametrize("problem, f, values", LADDERS, ids=[
    "ex-K3", "ex-K4", "ex-C4", "ex-K4^3", "ar-K3", "ar-K4", "ar-C4", "ar-K4^3"
])
def test_global_cap_never_undercuts(problem, f, values):
    # the cap k * A(k-1) // (k - r) on rung k is at least A(k) along each
    # ladder, and the climb that leans on it reaches the published values
    r = f.r
    for k, want in values.items():
        if k > r:
            assert k * values[k - 1] // (k - r) >= want, k
        if problem == "turan":
            rep = exact_turan(k, [f])
            got = rep.value
        else:
            rep = exact_anti_ramsey(k, f)
            got = rep.value - 1
        assert got == want, k
        assert verify_feasibility(rep)


def test_climb_sums_rungs():
    # K4 fits in neither 2 nor 3 vertices, so rung 4 leans on C(3,2) and
    # rung 5 on rung 4; the report is rung 5's leaf with the nodes of both
    _, four_best, _, four_nodes = run_loop(4, [K4], False, 3)
    _, five_best, five_values, five_nodes = run_loop(5, [K4], False, four_best)
    rep = exact_anti_ramsey(5, K4)
    assert rep.nodes == four_nodes + five_nodes
    assert rep.instance["below"] == four_best == 5
    assert rep.value == five_best + 1 and rep.witness.colors == five_values


@pytest.mark.parametrize(
    "budget", [{"deadline": float("-inf")}, {"max_nodes": 0}], ids=["past_deadline", "no_nodes"]
)
def test_loop_budget_stops_on_first_node(budget):
    # the clock is read on node 1, so a deadline already past stops the loop
    # there, as a node cap of 0 does; no leaf has been reached
    assert run_loop(5, [K4], False, **budget) == ("budget_exhausted", -1, None, 1)


@pytest.mark.parametrize(
    "solve",
    [
        lambda budget: exact_turan(5, [K4], budget=budget),
        lambda budget: exact_anti_ramsey(5, K4, budget=budget),
    ],
    ids=["turan", "anti_ramsey"],
)
def test_run_stopped_below_n_has_no_witness(solve):
    # one node is spent on rung 4, so the run never reaches rung 5: there is
    # no leaf on 5 vertices and no premise for it
    rep = solve(SearchBudget(max_nodes=1))
    assert rep.status == "budget_exhausted" and rep.nodes == 2
    assert rep.value is None and rep.instance["below"] is None
    if rep.instance["problem"] == "turan":
        assert rep.witness.n == 5 and rep.witness.num_edges == 0
    else:
        assert rep.witness is None
    assert verify_feasibility(rep)


class TestVerifyFeasibility:
    def test_rejects_corrupted_turan_witness(self):
        import dataclasses

        rep = exact_turan(5, [K3])
        bad = make_hypergraph(5, 2, kn_edges(5, 2)[: rep.value])
        assert not verify_feasibility(dataclasses.replace(rep, witness=bad))

    def test_rejects_corrupted_coloring_witness(self):
        import dataclasses

        from arl.coloring import make_coloring

        rep = exact_anti_ramsey(4, K3)
        m = rep.value - 1
        bad = make_coloring(4, 2, [i % m for i in range(6)])
        assert not verify_feasibility(dataclasses.replace(rep, witness=bad))

    def test_rejects_turan_witness_of_wrong_uniformity(self):
        import dataclasses

        # a 3-graph with as many edges as ex(5, K3) claims
        rep = exact_turan(5, [K3])
        bad = make_hypergraph(5, 3, kn_edges(5, 3)[: rep.value])
        assert not verify_feasibility(dataclasses.replace(rep, witness=bad))

    def test_rejects_coloring_witness_of_wrong_uniformity(self):
        import dataclasses

        from arl.coloring import make_coloring

        # a coloring of K_4^3 with as many colors as ar(4, K3) - 1 claims
        rep = exact_anti_ramsey(4, K3)
        bad = make_coloring(4, 3, [0, 1, 2, 0])
        assert bad.num_colors == rep.value - 1
        assert not verify_feasibility(dataclasses.replace(rep, witness=bad))

    def test_budget_report_checks_witness_only(self):
        import dataclasses

        # feasibility is certified even without optimality: the best-so-far
        # witness of an exhausted run must still be pattern-free
        rep = exact_turan(7, [K4], budget=SearchBudget(max_nodes=10))
        assert rep.status == "budget_exhausted"
        assert verify_feasibility(rep)
        bad = dataclasses.replace(rep, witness=complete_graph(7))
        assert not verify_feasibility(bad)
