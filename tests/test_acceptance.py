"""Acceptance gate: ten checks, one printed verdict line each.

Every check prints exactly one line of the form

    ACCEPTANCE c<k> <name>: PASS|FAIL (detail)

and then asserts.  All comparisons are exact integer equality; the only
tolerance anywhere is the 300 s wall clock ceiling pinned in c01.
"""

import dataclasses
import random
import time
from functools import lru_cache
from math import comb

from arl.canonical import are_isomorphic
from arl.coloring import (
    find_rainbow_copy,
    layered_coloring,
    make_coloring,
    max_rainbow_subgraph,
    merge_colors,
)
from arl.constructions import (
    complete_graph,
    expansion,
    minus_family,
    path_graph,
    pendant_minus_family,
    turan_count,
    turan_hypergraph,
)
from arl.hypergraph import has_copy, kn_edges, make_hypergraph
from arl.search import exact_anti_ramsey, exact_turan, verify_feasibility
from arl.verify import _small_corpus, _split_in_order
from helpers import naive_has_rainbow

K3 = complete_graph(3)
K4 = complete_graph(4)
P3 = path_graph(2)
HK3 = expansion(K3, 3)
CHERRY3 = make_hypergraph(5, 3, [(0, 1, 2), (0, 3, 4)])
BOOK3 = make_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])


@lru_cache(maxsize=None)
def ar(n, f):
    rep = exact_anti_ramsey(n, f)
    assert rep.status == "exact"
    return rep.value


@lru_cache(maxsize=None)
def ex(n, fam):
    rep = exact_turan(n, list(fam))
    assert rep.status == "exact"
    return rep.value


def _report(capsys, cid, name, failures):
    detail = ""
    if failures:
        shown = "; ".join(str(f) for f in failures[:4])
        if len(failures) > 4:
            shown += f"; +{len(failures) - 4} more"
        detail = f" ({shown})"
    with capsys.disabled():
        print(f"ACCEPTANCE {cid} {name}: {'FAIL' if failures else 'PASS'}{detail}")
    assert not failures, f"{cid}: {failures}"


def test_c01_k4_closed_form(capsys):
    # ar(n, K4) = floor(n^2/4) + 2 at n = 4, 5, within a 300 s ceiling
    failures = []
    t0 = time.monotonic()
    for n in (4, 5):
        got = ar(n, K4)
        want = n * n // 4 + 2
        if got != want:
            failures.append(f"n={n}: got {got}, want {want}")
    elapsed = time.monotonic() - t0
    if elapsed > 300.0:
        failures.append(f"took {elapsed:.1f}s > 300s")
    _report(capsys, "c01", "ar(n,K4) == floor(n^2/4)+2 for n in {4,5}", failures)


def test_c02_lower_bound(capsys):
    # ar(n,F) >= ex(n, F_minus) + 2 on eight exactly-solved instances,
    # four of them 3-uniform at n = 5
    instances = [
        (4, K3), (5, K3), (4, P3), (4, K4), (5, K4),
        (5, CHERRY3), (5, BOOK3), (5, HK3),
    ]
    failures = []
    for n, f in instances:
        lhs = ar(n, f)
        rhs = ex(n, tuple(minus_family(f))) + 2
        if lhs < rhs:
            failures.append(f"n={n}, m={f.num_edges}, r={f.r}: ar {lhs} < {rhs}")
    assert len(instances) >= 6
    _report(capsys, "c02", "ar(n,F) >= ex(n,F-)+2 on 8 instances", failures)


def test_c03_pendant_upper_bound(capsys):
    # ar(n,F) <= ex(n, F_{k-}) + (|F|-1) C(n,k) for all n in r..5, k in 1..r-1;
    # an empty deletion family makes its ex degenerate to all of K_n
    failures = []
    checked = 0
    for f in (P3, K3, HK3):
        for n in range(f.r, 6):
            for k in range(1, f.r):
                fam = pendant_minus_family(f, k)
                exk = ex(n, tuple(fam)) if len(fam) else comb(n, f.r)
                lhs = ar(n, f)
                rhs = exk + (f.num_edges - 1) * comb(n, k)
                checked += 1
                if lhs > rhs:
                    failures.append(f"F@{f.n}v, n={n}, k={k}: {lhs} > {rhs}")
    assert checked >= 12
    _report(capsys, "c03", "ar(n,F) <= ex(n,F_k-)+(|F|-1)C(n,k), n<=5", failures)


def test_c04_turan_oracle(capsys):
    failures = []
    for ell in (2, 3):
        for n in range(1, 9):
            got = ex(n, (complete_graph(ell + 1),))
            want = turan_count(n, ell, 2)
            if got != want:
                failures.append(f"ex({n},K{ell + 1}) = {got} != {want}")
    for n in range(1, 13):
        for ell in range(1, 5):
            for r in (2, 3):
                built = turan_hypergraph(n, ell, r).num_edges
                formula = turan_count(n, ell, r)
                if built != formula:
                    failures.append(f"t_{r}({n},{ell}): {built} != {formula}")
    _report(capsys, "c04", "exact_turan matches t_2(n,l); count formula", failures)


def test_c05_layered_coloring(capsys):
    # the advertised count t_3(n,3)+3 is unreachable at n = 4, 5: a part
    # with fewer than two vertices colors no triple, and colorings here are
    # surjective by construction, so those two values fall short
    failures = []
    for n in range(4, 13):
        chi = layered_coloring(n, 3)
        want = turan_count(n, 3, 3) + 3
        if chi.num_colors != want:
            failures.append(f"n={n}: {chi.num_colors} colors != {want}")
        elif max_rainbow_subgraph(chi).num_edges != want:
            failures.append(f"n={n}: rainbow subgraph != {want}")
    _report(capsys, "c05", "layered colors == t_3(n,3)+3, 4<=n<=12", failures)


def test_c06_splitting_suite(capsys):
    from arl.constructions import splitting_family

    failures = []

    split_k3 = splitting_family(K3)
    if len(split_k3) != 2:
        failures.append(f"|Split(K3)| = {len(split_k3)}")
    else:
        want = {0: K3, 1: path_graph(3)}
        for g in split_k3:
            if not any(are_isomorphic(g, w) for w in want.values()):
                failures.append("Split(K3) member not in {K3, 3-edge path}")

    split_p3 = splitting_family(P3)
    two_k2 = make_hypergraph(4, 2, [(0, 1), (2, 3)])
    if len(split_p3) != 2 or not (
        any(are_isomorphic(g, P3) for g in split_p3)
        and any(are_isomorphic(g, two_k2) for g in split_p3)
    ):
        failures.append("Split(P3) != {P3, 2K2}")

    corpus = _small_corpus()
    sets_seen = 0
    for f in corpus:
        fam = splitting_family(f)
        for g in fam:
            if g.num_edges != f.num_edges:
                failures.append(f"split changed edge count on {f!r}")
        from arl.canonical import canonical_key
        from arl.constructions import split_set
        from arl.hypergraph import independent_sets

        for ind in independent_sets(f):
            if not ind:
                continue
            sets_seen += 1
            direct = canonical_key(split_set(f, ind))
            asc = canonical_key(_split_in_order(f, list(ind)))
            desc = canonical_key(_split_in_order(f, list(reversed(ind))))
            if not (direct == asc == desc):
                failures.append(f"order dependence on {f.edges} at {ind}")
    if len(corpus) < 50 or sets_seen < 500:
        failures.append(f"corpus too small: {len(corpus)} graphs, {sets_seen} sets")
    _report(capsys, "c06", "splitting classes, |F^|=|F|, order-free", failures)


def test_c07_detector_equivalence(capsys):
    rng = random.Random(12345)
    failures = []
    for trial in range(100):
        r = rng.choice([2, 3])
        n = rng.randint(r, 7)
        pv = rng.randint(r, min(n + 1, 7))
        pool = kn_edges(pv, r)
        f = make_hypergraph(
            pv, r, rng.sample(pool, rng.randint(1, min(4, len(pool))))
        )
        M = comb(n, r)
        m = rng.randint(1, M)
        raw = [rng.randrange(m) for _ in range(M)]
        remap = {}
        chi = make_coloring(n, r, [remap.setdefault(x, len(remap)) for x in raw])
        fast = find_rainbow_copy(chi, f) is not None
        slow = naive_has_rainbow(chi, f)
        if fast != slow:
            failures.append(f"trial {trial}: fast {fast} != naive {slow}")
    _report(capsys, "c07", "detector == naive oracle on 100 seeded", failures)


def test_c08_merge_monotonicity(capsys):
    rng = random.Random(54321)
    failures = []
    produced = 0
    while produced < 100:
        r = rng.choice([2, 3])
        n = rng.randint(r + 1, 6)
        pv = rng.randint(r, min(n, 5))
        pool = kn_edges(pv, r)
        f = make_hypergraph(
            pv, r, rng.sample(pool, rng.randint(1, min(3, len(pool))))
        )
        M = comb(n, r)
        m = rng.randint(1, M)
        raw = [rng.randrange(m) for _ in range(M)]
        remap = {}
        chi = make_coloring(n, r, [remap.setdefault(x, len(remap)) for x in raw])
        while find_rainbow_copy(chi, f) is not None and chi.num_colors > 1:
            a = rng.randrange(chi.num_colors - 1)
            chi = merge_colors(chi, a, rng.randrange(a + 1, chi.num_colors))
        if find_rainbow_copy(chi, f) is not None:
            continue
        produced += 1
        for a in range(chi.num_colors):
            for b in range(a + 1, chi.num_colors):
                if find_rainbow_copy(merge_colors(chi, a, b), f) is not None:
                    failures.append(f"instance {produced}: merge ({a},{b})")
    _report(capsys, "c08", "merges keep rainbow-freeness, 100 seeded", failures)


def test_c09_turan_host_freeness(capsys):
    failures = []
    for ell in range(1, 5):
        clique = complete_graph(ell + 1)
        for n in range(1, 11):
            host = turan_hypergraph(n, ell, 2)
            if has_copy(clique, host):
                failures.append(f"K{ell + 1} in T_2({n},{ell})")
    hk4 = expansion(K4, 3)
    for n in range(3, 10):
        host = turan_hypergraph(n, 3, 3)
        if has_copy(hk4, host):
            failures.append(f"H_K4^3 in T_3({n},3)")
    _report(capsys, "c09", "no K_(l+1) in T_2, no H_K4^3 in T_3", failures)


def test_c10_witness_integrity(capsys):
    failures = []
    reports = [
        exact_turan(5, [K3]),
        exact_turan(6, [K4]),
        exact_turan(5, [CHERRY3]),
        exact_anti_ramsey(4, K3),
        exact_anti_ramsey(5, CHERRY3),
        exact_anti_ramsey(4, make_hypergraph(2, 2, [(0, 1)])),  # witness None
        exact_anti_ramsey(5, make_hypergraph(2, 2, [(0, 1)])),  # witness None
    ]
    for i, rep in enumerate(reports):
        if rep.status != "exact" or not verify_feasibility(rep):
            failures.append(f"report {i} rejected")

    # negative controls: a too-dense host and an undersized coloring
    bad_host = make_hypergraph(5, 2, kn_edges(5, 2)[: reports[0].value])
    if verify_feasibility(dataclasses.replace(reports[0], witness=bad_host)):
        failures.append("corrupted turan witness accepted")
    m = reports[3].value - 1
    bad_chi = make_coloring(4, 2, [i % m for i in range(6)])
    if verify_feasibility(dataclasses.replace(reports[3], witness=bad_chi)):
        failures.append("corrupted coloring witness accepted")
    _report(capsys, "c10", "verify_feasibility accepts suite, rejects corrupt", failures)
