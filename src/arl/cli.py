"""Command line front end.

Subcommands mirror the library: construct, color, check, solve, bounds,
verify-paper.  Each subcommand's action is registered on its parser with
set_defaults: run= on the top-level commands, build= on the construct kinds
and solve= on solve ex and ar.  The CLI parses, calls the library and emits
what formats renders.

Every run is a pure function of its argument vector.

Exit codes: 0 success, 1 verify-paper found a failing check, 2 bad
arguments or a malformed input file, 3 budget exhausted where an exact
answer was required.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path
from typing import Optional

from . import formats
from .bounds import bound_report
from .coloring import BudgetExhausted, is_rainbow_family_free, layered_coloring
from .constructions import (
    NAMED_DESCRIPTORS,
    blowup,
    expansion,
    minus_family,
    named_hypergraph,
    pendant_minus_family,
    special_blowup_graph,
    split_set,
    splitting_family,
    turan_hypergraph,
)
from .hypergraph import Family, Hypergraph, make_family
from .search import SearchBudget, exact_anti_ramsey, exact_turan
from .verify import suite_counts, suite_to_text, verify_paper_suite

__all__ = ["main", "run_command"]


def _read(path: str, from_json, from_text):
    """Parse a file with from_json if its name ends in .json, else from_text."""
    text = Path(path).read_text()
    return from_json(json.loads(text)) if path.endswith(".json") else from_text(text)


def _patterns_from(args) -> list[Hypergraph]:
    pats: list[Hypergraph] = []
    if getattr(args, "family", None):
        for token in args.family.split(","):
            pats.append(named_hypergraph(token.strip()))
    if getattr(args, "infile", None):
        pats.append(
            _read(args.infile, formats.hypergraph_from_json, formats.hypergraph_from_text)
        )
    if not pats:
        raise ValueError("need --family descriptor(s) or --in FILE")
    return pats


def _single_pattern(args) -> Hypergraph:
    pats = _patterns_from(args)
    if len(pats) != 1:
        raise ValueError("exactly one pattern expected here")
    return pats[0]


def _budget_from(args) -> Optional[SearchBudget]:
    nodes = getattr(args, "budget_nodes", None)
    secs = getattr(args, "budget_secs", None)
    if nodes is None and secs is None:
        return None
    return SearchBudget(max_nodes=nodes, max_seconds=secs)


def _emit(args, text: str, payload: dict) -> None:
    out = formats.dumps(payload) if args.format == "json" else text
    if getattr(args, "out", None):
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write output to this path instead of stdout")


def _add_pattern_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        help="inline descriptor(s), comma separated: "
        + ", ".join(NAMED_DESCRIPTORS),
    )
    p.add_argument("--in", dest="infile", help="hypergraph file (text or .json)")


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--budget-secs", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="arl",
        description="constructions, rainbow colorings and exact extremal "
        "solvers for small uniform hypergraphs",
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a hypergraph or family")
    c.set_defaults(run=_cmd_construct)
    csub = c.add_subparsers(dest="what", required=True)

    p = csub.add_parser("expansion", help="pad each edge with fresh vertices")
    _add_pattern_flags(p)
    p.add_argument("--r", type=int, required=True)
    _add_io_flags(p)
    p.set_defaults(build=lambda a: expansion(_single_pattern(a), a.r))

    p = csub.add_parser("blowup", help="replace vertices by t-sets")
    _add_pattern_flags(p)
    p.add_argument("--t", type=int, required=True)
    _add_io_flags(p)
    p.set_defaults(build=lambda a: blowup(_single_pattern(a), a.t))

    p = csub.add_parser("split", help="split an independent vertex set")
    _add_pattern_flags(p)
    p.add_argument("--vertices", required=True, help="comma separated, e.g. 0,2")
    p.add_argument("--mode", choices=("weak", "strong"), default="weak")
    _add_io_flags(p)
    p.set_defaults(build=_build_split)

    p = csub.add_parser("split-family", help="all splittings up to isomorphism")
    _add_pattern_flags(p)
    p.add_argument("--mode", choices=("weak", "strong"), default="weak")
    _add_io_flags(p)
    p.set_defaults(build=lambda a: splitting_family(_single_pattern(a), a.mode))

    p = csub.add_parser("minus", help="single-edge deletions up to isomorphism")
    _add_pattern_flags(p)
    _add_io_flags(p)
    p.set_defaults(build=lambda a: minus_family(_single_pattern(a)))

    p = csub.add_parser("pendant-minus", help="k-pendant edge deletions")
    _add_pattern_flags(p)
    p.add_argument("--k", type=int, required=True)
    _add_io_flags(p)
    p.set_defaults(build=lambda a: pendant_minus_family(_single_pattern(a), a.k))

    p = csub.add_parser("turan", help="complete multipartite r-graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    _add_io_flags(p)
    p.set_defaults(build=lambda a: turan_hypergraph(a.n, a.ell, a.r))

    p = csub.add_parser("special", help="blowup of K_ell with extra edges")
    p.add_argument("--kind", choices=("alpha", "beta", "gamma", "plus"), required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    _add_io_flags(p)
    p.set_defaults(build=lambda a: special_blowup_graph(a.kind, a.ell, a.t))

    col = sub.add_parser("color", help="build distinguished colorings")
    col.set_defaults(run=_cmd_color)
    colsub = col.add_subparsers(dest="what", required=True)
    p = colsub.add_parser("layered", help="part-based triple coloring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    _add_io_flags(p)

    chk = sub.add_parser("check", help="decide properties of given objects")
    chk.set_defaults(run=_cmd_check)
    chksub = chk.add_subparsers(dest="what", required=True)
    p = chksub.add_parser("rainbow-free", help="is a coloring rainbow-free?")
    p.add_argument("--coloring", required=True, help="coloring file (text or .json)")
    _add_pattern_flags(p)
    p.add_argument(
        "--budget-nodes", type=int, default=None, help="node cap of the search"
    )
    _add_io_flags(p)

    sol = sub.add_parser("solve", help="exact extremal solvers")
    sol.set_defaults(run=_cmd_solve)
    solsub = sol.add_subparsers(dest="what", required=True)
    p = solsub.add_parser("ex", help="maximum pattern-free edge count")
    p.add_argument("--n", type=int, required=True)
    _add_pattern_flags(p)
    _add_budget_flags(p)
    _add_io_flags(p)
    p.set_defaults(solve=lambda a, b: exact_turan(a.n, _patterns_from(a), budget=b))
    p = solsub.add_parser("ar", help="least color count forcing a rainbow copy")
    p.add_argument("--n", type=int, required=True)
    _add_pattern_flags(p)
    _add_budget_flags(p)
    _add_io_flags(p)
    p.set_defaults(solve=lambda a, b: exact_anti_ramsey(a.n, _single_pattern(a), budget=b))

    b = sub.add_parser("bounds", help="bound templates at one (n, F)")
    b.set_defaults(run=_cmd_bounds)
    b.add_argument("--n", type=int, required=True)
    _add_pattern_flags(b)
    b.add_argument("--r", type=int, default=None, help="expand the pattern to this uniformity")
    _add_budget_flags(b)
    _add_io_flags(b)

    v = sub.add_parser("verify-paper", help="run the named check suite")
    v.set_defaults(run=_cmd_verify)
    _add_budget_flags(v)
    v.add_argument(
        "--only",
        default=None,
        help="run only the check groups whose key contains this text; keys: "
        "k4-exact, lower, pendant, turan, layered, split",
    )
    _add_io_flags(v)

    return top


def _build_split(args) -> Hypergraph:
    verts = [int(tok) for tok in args.vertices.split(",") if tok.strip() != ""]
    return split_set(_single_pattern(args), verts, args.mode)


def _cmd_construct(args) -> int:
    built = args.build(args)
    if isinstance(built, Family):
        _emit(args, formats.family_to_text(built), formats.family_to_json(built))
    else:
        _emit(args, formats.hypergraph_to_text(built), formats.hypergraph_to_json(built))
    return 0


def _cmd_color(args) -> int:
    chi = layered_coloring(args.n, args.ell)
    _emit(args, formats.coloring_to_text(chi), formats.coloring_to_json(chi))
    return 0


def _cmd_check(args) -> int:
    chi = _read(args.coloring, formats.coloring_from_json, formats.coloring_from_text)
    fam = make_family(_patterns_from(args))
    budget = _budget_from(args)
    try:
        rep = is_rainbow_family_free(chi, fam, limit=budget.max_nodes if budget else None)
    except BudgetExhausted as exc:
        _emit(args, f"undecided: {exc}\n", {"free": None, "note": str(exc)})
        return 3
    _emit(args, formats.rainbow_free_to_text(rep), formats.rainbow_free_to_json(rep))
    return 0


def _cmd_solve(args) -> int:
    rep = args.solve(args, _budget_from(args))
    _emit(args, formats.report_to_text(rep), formats.report_to_json(rep))
    return 3 if rep.status == "budget_exhausted" else 0


def _cmd_bounds(args) -> int:
    table = bound_report(
        args.n, _single_pattern(args), r=args.r, budget=_budget_from(args)
    )
    _emit(args, formats.bounds_to_text(table), formats.bounds_to_json(table))
    return 3 if table.ar_status == "budget_exhausted" else 0


def _cmd_verify(args) -> int:
    rows = verify_paper_suite(_budget_from(args), only=args.only)
    if args.only and not rows:
        # a filter that matches nothing is almost certainly a typo
        raise ValueError(f"--only {args.only!r} matches no check group")
    _emit(args, suite_to_text(rows), formats.suite_to_json(rows))
    _, nfail, _ = suite_counts(rows)
    return 1 if nfail else 0


def run_command(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    # library warnings reach the user as their message alone, not as the
    # CLI source line that triggered them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.run(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
