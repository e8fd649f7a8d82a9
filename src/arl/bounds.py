"""Side-by-side evaluation of the anti-Ramsey bounds at one concrete (n, F).

The report pairs the exact anti-Ramsey value with three bound templates:

* lower:    ar(n,F) >= ex(n, F_minus) + 2.
* upper via expansions:  for F an expansion target (r > base uniformity),
            ar(n, H) <= ex(n, expansions of base deletions) +
            (|F|-1) * ex(n, splitting family of base) + 1.  This is an
            asymptotic claim; at small n a miss is reported, not failed.
* upper via pendant deletions:  for each 1 <= k < r,
            ar(n,F) <= ex(n, F_{k-}) + (|F|-1)*C(n,k).

The lower and pendant rows are hard, so a violation is a failure, exactly
when the target's non-isolated vertices fit in n.  A target that does not fit
has no copy in K_n^r, ar = C(n,r) + 1 and neither claim speaks about that n:
those rows are soft, and the ones with both sides known note the misfit.

Rows degrade honestly: a tripped budget yields "indeterminate", a template
whose ingredient family makes ex undefined (an edgeless deletion) yields
"not-applicable".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Union

from .constructions import (
    expansion,
    minus_family,
    pendant_minus_family,
    splitting_family,
)
from .hypergraph import Family, Hypergraph
from .search import SearchBudget, exact_anti_ramsey, exact_turan

__all__ = ["BoundRow", "BoundsTable", "bound_report"]


@dataclass(frozen=True)
class BoundRow:
    """One bound template instantiated at (n, F).

    hard marks claims quantified over this n; a violated hard row is a
    defect, a violated soft row is expected small-n behavior.
    """

    name: str
    lhs: Optional[int]
    relation: str
    rhs: Optional[int]
    verdict: str  # satisfied | violated | indeterminate | not-applicable
    hard: bool
    note: str = ""


@dataclass(frozen=True)
class BoundsTable:
    n: int
    r: int
    base: Hypergraph
    target: Hypergraph
    ar_value: Optional[int]
    ar_status: str
    rows: tuple[BoundRow, ...]

    @property
    def hard_ok(self) -> bool:
        return not any(row.hard and row.verdict == "violated" for row in self.rows)


def _ex(
    n: int, patterns: Union[Hypergraph, Family], budget: Optional[SearchBudget]
) -> tuple[Optional[int], str]:
    """ex value plus a note: "" exact, "budget" exhausted, "undefined" when
    an edgeless pattern makes every graph forbidden."""
    try:
        rep = exact_turan(n, patterns, budget=budget)
    except ValueError:
        return None, "undefined"
    if rep.status != "exact":
        return None, "budget"
    return rep.value, ""


def _compare(
    ar: Optional[int],
    relation: str,
    rhs: Optional[int],
    *,
    hard: bool,
    name: str,
    note: str = "",
    misfit: str = "",
) -> BoundRow:
    if ar is None or rhs is None:
        # with rhs known, only the ar solve can have left the row open
        why = note if rhs is None and note else "budget"
        verdict = "not-applicable" if why == "undefined" else "indeterminate"
        return BoundRow(name, ar, relation, rhs, verdict, hard, why)
    note = "; ".join(filter(None, (note, misfit)))
    holds = ar >= rhs if relation == ">=" else ar <= rhs
    if holds:
        verdict = "satisfied"
    else:
        verdict = "violated" if hard else "indeterminate"
        if not hard and not note:
            note = "asymptotic claim; small n may fall short"
    return BoundRow(name, ar, relation, rhs, verdict, hard, note)


def bound_report(
    n: int,
    pattern: Hypergraph,
    *,
    r: Optional[int] = None,
    budget: Optional[SearchBudget] = None,
) -> BoundsTable:
    """Evaluate every applicable bound template for pattern at host size n.

    r above the pattern's own uniformity targets the expansion; r equal (or
    None) targets the pattern itself.  All extremal quantities are solved
    exactly under the given budget.
    """
    base = pattern
    if r is None or r == base.r:
        target = base
        r = base.r
    elif r > base.r:
        target = expansion(base, r)
    else:
        raise ValueError(f"cannot lower uniformity {base.r} to {r}")

    ar_rep = exact_anti_ramsey(n, target, budget=budget)
    ar = ar_rep.value

    rows: list[BoundRow] = []
    need = len(target.non_isolated)
    fits = need <= n
    misfit = "" if fits else f"target does not fit: {need} vertices > n"

    # universal lower bound through single-edge deletions
    minus = minus_family(target)
    exm, note = _ex(n, minus, budget)
    rhs = None if exm is None else exm + 2
    rows.append(
        _compare(ar, ">=", rhs, hard=fits, name="lower-minus", note=note, misfit=misfit)
    )

    # expansion upper bound, only meaningful for genuine expansions; the
    # expansions of the base's deletions are the target's deletions, member
    # for member, so their ex is the lower row's
    if target is not base and base.r >= 2:
        ex2, n2 = _ex(n, splitting_family(base), budget)
        rhs = None if exm is None or ex2 is None else exm + (base.num_edges - 1) * ex2 + 1
        rows.append(
            _compare(ar, "<=", rhs, hard=False, name="upper-expansion", note=note or n2)
        )

    # pendant deletion upper bounds, one per k
    for k in range(1, target.r):
        fam = pendant_minus_family(target, k)
        if len(fam) == 0:
            exk, notek = comb(n, target.r), "no k-pendant deletion; ex is vacuous"
        elif fam.members == minus.members:
            exk, notek = exm, note
        else:
            exk, notek = _ex(n, fam, budget)
        rhs = None if exk is None else exk + (target.num_edges - 1) * comb(n, k)
        rows.append(
            _compare(
                ar, "<=", rhs, hard=fits,
                name=f"upper-pendant-k{k}", note=notek, misfit=misfit,
            )
        )

    return BoundsTable(
        n=n,
        r=r,
        base=base,
        target=target,
        ar_value=ar,
        ar_status=ar_rep.status,
        rows=tuple(rows),
    )
