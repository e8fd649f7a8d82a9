from math import comb

import pytest

import arl.bounds
from arl.bounds import bound_report
from arl.constructions import (
    complete_graph,
    minus_family,
    path_graph,
    pendant_minus_family,
    single_edge,
)
from arl.search import SearchBudget, exact_turan
from helpers import brute_ex

K3 = complete_graph(3)


def row_map(table):
    return {row.name: row for row in table.rows}


class TestTriangleTable:
    def test_frozen(self):
        t = bound_report(5, K3)
        assert (t.n, t.r, t.ar_value, t.ar_status) == (5, 2, 5, "exact")
        rows = row_map(t)
        low = rows["lower-minus"]
        assert (low.lhs, low.relation, low.rhs, low.verdict, low.hard) == (
            5, ">=", 4, "satisfied", True,
        )
        # K3 has no pendant vertex, so the k=1 deletion family is empty and
        # its ex degenerates to all of K_n
        up = rows["upper-pendant-k1"]
        assert (up.lhs, up.rhs, up.verdict) == (5, 20, "satisfied")
        assert "vacuous" in up.note
        assert t.hard_ok

    def test_no_expansion_row_for_graph_base(self):
        t = bound_report(5, K3)
        assert "upper-expansion" not in row_map(t)


class TestExpandedPathTable:
    def test_frozen(self):
        t = bound_report(6, path_graph(2), r=3)
        assert (t.r, t.ar_value) == (3, 2)
        rows = row_map(t)
        assert rows["lower-minus"].rhs == 2
        exp = rows["upper-expansion"]
        assert (exp.rhs, exp.verdict, exp.hard) == (2, "satisfied", False)
        assert rows["upper-pendant-k1"].rhs == 6
        assert rows["upper-pendant-k2"].rhs == 15
        assert t.hard_ok

    def test_each_deletion_family_solved_once(self, monkeypatch):
        # the lower, expansion and both pendant rows share ex(6, F_-); the
        # splitting family is the only other ex
        calls = []

        def counting(n, patterns, **kw):
            calls.append(patterns)
            return exact_turan(n, patterns, **kw)

        monkeypatch.setattr(arl.bounds, "exact_turan", counting)
        bound_report(6, path_graph(2), r=3)
        assert len(calls) == 2

    def test_target_uniformity(self):
        assert bound_report(6, path_graph(2), r=3).target.r == 3
        with pytest.raises(ValueError):
            bound_report(6, path_graph(2), r=1)


class TestPendantFamily:
    def test_row_solves_the_pendant_family_when_it_differs(self):
        # the 4-edge path loses a pendant edge only at its ends, leaving the
        # 3-edge path; its minus family also holds a 2-edge path plus an edge
        target = path_graph(4)
        fam = pendant_minus_family(target, 1)
        assert fam.members != minus_family(target).members
        assert brute_ex(5, list(fam.members), 2) == exact_turan(5, fam).value == 4
        row = row_map(bound_report(5, target))["upper-pendant-k1"]
        assert (row.relation, row.rhs) == ("<=", 4 + 3 * 5)


class TestTargetFit:
    @pytest.mark.parametrize(
        "n, base, r, need",
        [(2, K3, None, 3), (3, complete_graph(4), None, 4), (4, path_graph(2), 3, 5)],
    )
    def test_misfit_rows_are_soft(self, n, base, r, need):
        # no copy fits, so ar = C(n,r) + 1 and the small-n claims do not apply
        t = bound_report(n, base, r=r)
        assert t.ar_value == comb(n, t.r) + 1
        assert t.hard_ok
        assert any(row.verdict == "indeterminate" for row in t.rows)
        for row in t.rows:
            assert not row.hard
            if row.name != "upper-expansion":
                assert row.note.endswith(f"target does not fit: {need} vertices > n")

    def test_rows_are_hard_once_target_fits(self):
        t = bound_report(4, complete_graph(4))
        rows = row_map(t)
        assert rows["lower-minus"].hard and rows["upper-pendant-k1"].hard
        # ex = C(4,2) - 2 here; a near-complete extremal graph needs no caveat
        assert rows["lower-minus"].note == ""
        assert t.hard_ok

    def test_exhausting_extremal_graph_gets_no_caveat(self):
        # ex(2, P3_-) = 0 = C(2,2) - 1 and the lower bound still holds; the
        # only caveat left is that P3 needs 3 vertices
        low = row_map(bound_report(2, path_graph(2)))["lower-minus"]
        assert (low.rhs, low.verdict, low.hard) == (2, "satisfied", False)
        assert low.note == "target does not fit: 3 vertices > n"


class TestDegenerateBase:
    def test_single_edge_rows_not_applicable(self):
        t = bound_report(4, single_edge(2))
        assert t.ar_value == 1
        for row in t.rows:
            assert row.verdict == "not-applicable"
            assert row.rhs is None
            assert row.note == "undefined"
        assert t.hard_ok  # nothing applicable cannot fail


class TestBudget:
    def test_exhaustion_marks_indeterminate(self):
        t = bound_report(6, complete_graph(4), budget=SearchBudget(max_nodes=3))
        assert t.ar_status == "budget_exhausted"
        assert t.ar_value is None
        assert all(row.verdict == "indeterminate" for row in t.rows)
        # the pendant row's ex is vacuous, so only the ar budget leaves it open
        assert all(row.note == "budget" for row in t.rows)
        assert t.hard_ok  # indeterminate is not a violation

    def test_large_expansion_stays_open(self):
        # the minus family of the expansion of K6 has 20 vertices
        t = bound_report(7, complete_graph(6), r=3, budget=SearchBudget(max_nodes=10))
        assert t.ar_status == "budget_exhausted"
        assert t.rows and all(row.note == "budget" for row in t.rows)
        assert all(row.verdict == "indeterminate" for row in t.rows)

    def test_generous_budget_is_exact(self):
        t = bound_report(5, K3, budget=SearchBudget(max_nodes=10**7))
        assert t.ar_status == "exact" and t.ar_value == 5
