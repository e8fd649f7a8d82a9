"""Named re-checks of the paper's claims at desk scale.

Each check row records what was expected, what was computed, and a verdict.
Rows are grouped by claim, one group key each: closed-form K4 values
(k4-exact), the Erdos-Simonovits-Sos lower bound (lower), pendant upper
bounds (pendant), Turan numbers against the solver and the product formula
(turan), layered coloring counts (layered) and splitting families (split).
Verdicts are pass/fail/skip; a budget that runs dry skips instead of
guessing.

The suite is deterministic for a fixed budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

from .bounds import BoundRow, bound_report
from .canonical import canonical_key, distinct_classes
from .coloring import layered_coloring, max_rainbow_subgraph
from .constructions import (
    complete_graph,
    expansion,
    path_graph,
    split_set,
    split_vertex,
    splitting_family,
    turan_count,
    turan_hypergraph,
)
from .hypergraph import Hypergraph, independent_sets, kn_edges, make_hypergraph
from .search import SearchBudget, exact_anti_ramsey, exact_turan

__all__ = ["CheckRow", "verify_paper_suite", "suite_to_text", "suite_counts"]

# seeds the one shuffled splitting order of the split group
_SPLIT_SEED = 12345


@dataclass(frozen=True)
class CheckRow:
    name: str
    expected: str
    got: str
    verdict: str  # pass | fail | skip
    note: str = ""


def _row(name: str, expected, got, ok: Optional[bool], note: str = "") -> CheckRow:
    verdict = "skip" if ok is None else ("pass" if ok else "fail")
    return CheckRow(name, str(expected), str(got), verdict, note)


def _exact_row(name: str, want, rep) -> CheckRow:
    """A solver report checked against want; a report that is not exact
    skips with got "budget" instead of guessing."""
    if rep.status != "exact":
        return _row(name, want, "budget", None)
    return _row(name, want, rep.value, rep.value == want)


def _bound_row(name: str, row: BoundRow) -> CheckRow:
    """A bound_report row as a check: satisfied passes, violated fails, and
    an indeterminate or not-applicable row skips with the row's note."""
    if row.verdict in ("satisfied", "violated"):
        ok = row.verdict == "satisfied"
        return _row(name, f"{row.relation} {row.rhs}", row.lhs, ok)
    return _row(name, "exact pair", row.verdict, None, row.note)


def _cherry3() -> Hypergraph:
    return make_hypergraph(5, 3, [(0, 1, 2), (0, 3, 4)])


def _book3() -> Hypergraph:
    return make_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])


# ---------------------------------------------------------------- criteria


def _crit_k4_exact(budget) -> list[CheckRow]:
    rows = []
    K4 = complete_graph(4)
    for n in range(4, 9):
        want = n * n // 4 + 2
        rows.append(_exact_row(f"k4-exact: ar({n},K4) == {want}", want,
                               exact_anti_ramsey(n, K4, budget=budget)))
    return rows


def _crit_lower(budget) -> list[CheckRow]:
    instances = [
        ("K3", complete_graph(3), 3),
        ("K3", complete_graph(3), 4),
        ("K3", complete_graph(3), 5),
        ("K4", complete_graph(4), 4),
        ("K4", complete_graph(4), 5),
        ("P3", path_graph(2), 3),
        ("cherry3", _cherry3(), 5),
        ("book3", _book3(), 5),
    ]
    rows = []
    for label, f, n in instances:
        table = {b.name: b for b in bound_report(n, f, budget=budget).rows}
        name = f"lower: ar({n},{label}) >= ex({n},minus)+2"
        rows.append(_bound_row(name, table["lower-minus"]))
    return rows


def _crit_pendant_upper(budget) -> list[CheckRow]:
    targets = [
        ("P3", path_graph(2)),
        ("K3", complete_graph(3)),
        ("HK3^3", expansion(complete_graph(3), 3)),
    ]
    rows = []
    for label, f in targets:
        for n in range(f.r, 6):
            table = {b.name: b for b in bound_report(n, f, budget=budget).rows}
            for k in range(1, f.r):
                name = f"pendant: ar({n},{label}) <= ex+({f.num_edges}-1)C({n},{k})"
                rows.append(_bound_row(name, table[f"upper-pendant-k{k}"]))
    return rows


def _crit_turan_oracle(budget) -> list[CheckRow]:
    rows = []
    for ell in (2, 3):
        K = complete_graph(ell + 1)
        for n in range(1, 9):
            want = turan_count(n, ell, 2)
            rows.append(_exact_row(f"turan-solver: ex({n},K{ell + 1}) == {want}", want,
                                   exact_turan(n, K, budget=budget)))
    bad = []
    total = 0
    for n in range(0, 13):
        for ell in range(2, 5):
            for r in range(2, 4):
                if ell > n:
                    continue
                total += 1
                built = turan_hypergraph(n, ell, r).num_edges
                formula = turan_count(n, ell, r)
                if built != formula:
                    bad.append((n, ell, r, built, formula))
    rows.append(
        _row(
            "turan-count: construction matches product formula (n<=12,ell<=4,r<=3)",
            f"{total} agreements",
            f"{total - len(bad)} agreements" + (f", first bad {bad[0]}" if bad else ""),
            not bad,
        )
    )
    return rows


def _crit_layered(budget) -> list[CheckRow]:
    rows = []
    for n in range(4, 13):
        want = turan_count(n, 3, 3) + 3
        chi = layered_coloring(n, 3)
        picks = max_rainbow_subgraph(chi).num_edges
        got = chi.num_colors
        ok = got == want and picks == want
        note = "" if ok else "parts below 2 vertices cannot realize their color"
        rows.append(
            _row(
                f"layered({n},3): colors == t_3({n},3)+3 == {want}",
                f"{want} colors, {want} picks",
                f"{got} colors, {picks} picks",
                ok,
                note,
            )
        )
    # why the n=4 row above must fail: no coloring of K_4^3 has 5 colors
    want, triples = turan_count(4, 3, 3) + 3, comb(4, 3)
    rows.append(
        _row(
            "layered(4,3) unreachable: t_3(4,3)+3 > C(4,3) triples",
            "more colors than triples",
            f"{want} colors, {triples} triples",
            want > triples,
        )
    )
    return rows


def _all_hypergraphs(n: int, r: int):
    """Every r-graph on exactly n labeled vertices, as edge subsets."""
    pool = kn_edges(n, r)
    for mask in range(1 << len(pool)):
        yield make_hypergraph(n, r, [e for i, e in enumerate(pool) if mask >> i & 1])


def _small_corpus() -> tuple[Hypergraph, ...]:
    """Isomorphism-class representatives with at most 5 vertices."""
    return distinct_classes(
        h for n in range(0, 6) for r in (2, 3) if r <= n for h in _all_hypergraphs(n, r)
    )


def _split_in_order(f: Hypergraph, order: list[int]) -> Hypergraph:
    cur = f
    labels = list(order)
    for i, _ in enumerate(labels):
        u = labels[i]
        cur = split_vertex(cur, u)
        labels = [x - 1 if x > u else x for x in labels]
    return cur


def _crit_splitting() -> list[CheckRow]:
    rows = []
    K3 = complete_graph(3)
    got = sorted(canonical_key(m) for m in splitting_family(K3).members)
    want = sorted([canonical_key(K3), canonical_key(path_graph(3))])
    rows.append(
        _row("split: Split(K3) == {K3, 3-edge path}", "2 classes",
             f"{len(got)} classes", got == want)
    )
    P3 = path_graph(2)
    twoK2 = make_hypergraph(4, 2, [(0, 1), (2, 3)])
    got = sorted(canonical_key(m) for m in splitting_family(P3).members)
    want = sorted([canonical_key(P3), canonical_key(twoK2)])
    rows.append(
        _row("split: Split(P3) == {P3, 2K2}", "2 classes",
             f"{len(got)} classes", got == want)
    )

    corpus = _small_corpus()
    rng = random.Random(_SPLIT_SEED)
    size_bad = 0
    order_bad = 0
    checked_sizes = 0
    checked_orders = 0
    for f in corpus:
        for m in splitting_family(f).members:
            checked_sizes += 1
            if m.num_edges != f.num_edges:
                size_bad += 1
        for iset in independent_sets(f):
            if len(iset) < 2:
                continue
            checked_orders += 1
            ref = canonical_key(split_set(f, iset))
            asc = canonical_key(_split_in_order(f, sorted(iset)))
            shuffled = list(iset)
            rng.shuffle(shuffled)
            rnd = canonical_key(_split_in_order(f, shuffled))
            if not (ref == asc == rnd):
                order_bad += 1
    rows.append(
        _row(
            f"split: |F^| == |F| over {len(corpus)}-class corpus (v<=5)",
            "0 size changes",
            f"{size_bad} size changes over {checked_sizes} members",
            size_bad == 0,
        )
    )
    rows.append(
        _row(
            "split: order independence up to isomorphism on the same corpus",
            "0 mismatches",
            f"{order_bad} mismatches over {checked_orders} independent sets",
            order_bad == 0,
        )
    )
    return rows


def verify_paper_suite(
    budget: Optional[SearchBudget] = None,
    *,
    only: Optional[str] = None,
) -> tuple[CheckRow, ...]:
    """Run the named check suite; deterministic given budget.

    only filters criterion groups by substring of the group key.
    """
    groups: list[tuple[str, Callable[[], list[CheckRow]]]] = [
        ("k4-exact", lambda: _crit_k4_exact(budget)),
        ("lower", lambda: _crit_lower(budget)),
        ("pendant", lambda: _crit_pendant_upper(budget)),
        ("turan", lambda: _crit_turan_oracle(budget)),
        ("layered", lambda: _crit_layered(budget)),
        ("split", _crit_splitting),
    ]
    rows: list[CheckRow] = []
    for key, run in groups:
        if only is None or only in key:
            rows.extend(run())
    return tuple(rows)


def suite_counts(rows) -> tuple[int, int, int]:
    npass = sum(1 for r in rows if r.verdict == "pass")
    nfail = sum(1 for r in rows if r.verdict == "fail")
    nskip = sum(1 for r in rows if r.verdict == "skip")
    return npass, nfail, nskip


def suite_to_text(rows) -> str:
    width = max((len(r.name) for r in rows), default=4)
    lines = []
    for r in rows:
        mark = {"pass": "ok  ", "fail": "FAIL", "skip": "skip"}[r.verdict]
        tail = f"  # {r.note}" if r.note else ""
        lines.append(
            f"{mark}  {r.name:<{width}}  expected {r.expected} | got {r.got}{tail}"
        )
    npass, nfail, nskip = suite_counts(rows)
    lines.append(f"{npass} passed, {nfail} failed, {nskip} skipped")
    return "\n".join(lines) + "\n"
