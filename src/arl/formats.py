"""Text and JSON round-trip formats.

Text formats are line based and carry exactly the canonical object:

* hypergraph:  header "n r", then one edge per line, vertices ascending,
               lines in colex rank order.  '#' starts a comment line.
* coloring:    header "n r num_colors", then a single line with C(n,r)
               color ids in colex rank order.

JSON mirrors the same fields.  Parsing is strict: anything that would not
re-serialize to the same bytes (unsorted edges, gap in color ids, wrong
counts) is rejected rather than repaired, so round trips are exact.  A field
of a hypergraph, coloring or report payload that is missing or of the wrong
shape is a ValueError naming it.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Callable, Optional

from .bounds import BoundsTable
from .coloring import Coloring, RainbowFreeReport, make_coloring
from .hypergraph import Family, Hypergraph
from .search import SearchReport

__all__ = [
    "hypergraph_to_text",
    "hypergraph_from_text",
    "hypergraph_to_json",
    "hypergraph_from_json",
    "family_to_text",
    "family_to_json",
    "coloring_to_text",
    "coloring_from_text",
    "coloring_to_json",
    "coloring_from_json",
    "rainbow_free_to_text",
    "rainbow_free_to_json",
    "report_to_json",
    "report_from_json",
    "report_to_text",
    "bounds_to_json",
    "bounds_to_text",
    "suite_to_json",
    "dumps",
]


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def hypergraph_to_text(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.r}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> Hypergraph:
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty hypergraph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n r', got {lines[0]!r}")
    n, r = int(head[0]), int(head[1])
    edges = tuple(tuple(int(tok) for tok in line.split()) for line in lines[1:])
    # Hypergraph rejects unsorted, out-of-order and duplicate edges; it never sorts
    return Hypergraph(n, r, edges)


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {"n": h.n, "r": h.r, "edges": [list(e) for e in h.edges]}


def _json_field(d: dict, name: str, kind: str, ok: Callable[[object], bool]):
    """d[name], or a ValueError naming the field when it is missing or ok
    rejects it; kind says what ok accepts."""
    if not isinstance(d, dict) or name not in d:
        raise ValueError(f"JSON field {name!r} is missing")
    if not ok(d[name]):
        raise ValueError(f"JSON field {name!r} must be {kind}, got {d[name]!r}")
    return d[name]


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _json_ints(d: dict, name: str, depth: int = 0):
    """d[name]: an integer (depth 0), a list of them (1), a list of such
    lists (2) or a list of those (3)."""

    def ok(v: object, k: int = depth) -> bool:
        if k == 0:
            return _is_int(v)
        return isinstance(v, list) and all(ok(x, k - 1) for x in v)

    kinds = ("an integer", "a list of integers", "a list of integer lists",
             "a list of edge lists")
    return _json_field(d, name, kinds[depth], ok)


def hypergraph_from_json(d: dict) -> Hypergraph:
    n, r = _json_ints(d, "n"), _json_ints(d, "r")
    return Hypergraph(n, r, tuple(tuple(e) for e in _json_ints(d, "edges", 2)))


def family_to_text(fam: Family) -> str:
    parts = [f"{len(fam.members)} members"]
    for i, m in enumerate(fam.members):
        parts.append(f"# member {i}")
        parts.append(hypergraph_to_text(m).rstrip("\n"))
    return "\n".join(parts) + "\n"


def family_to_json(fam: Family) -> dict:
    return {"members": [hypergraph_to_json(m) for m in fam.members]}


def coloring_to_text(chi: Coloring) -> str:
    lines = [f"{chi.n} {chi.r} {chi.num_colors}"]
    if chi.colors:
        lines.append(" ".join(str(c) for c in chi.colors))
    return "\n".join(lines) + "\n"


def coloring_from_text(text: str) -> Coloring:
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty coloring text")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"header must be 'n r num_colors', got {lines[0]!r}")
    n, r, m = (int(tok) for tok in head)
    ids: list[int] = []
    for line in lines[1:]:
        ids.extend(int(tok) for tok in line.split())
    chi = make_coloring(n, r, ids)
    if chi.num_colors != m:
        raise ValueError(f"header claims {m} colors, ids use {chi.num_colors}")
    return chi


def coloring_to_json(chi: Coloring) -> dict:
    return {
        "n": chi.n,
        "r": chi.r,
        "num_colors": chi.num_colors,
        "colors": list(chi.colors),
    }


def coloring_from_json(d: dict) -> Coloring:
    n, r, m = (_json_ints(d, k) for k in ("n", "r", "num_colors"))
    chi = make_coloring(n, r, _json_ints(d, "colors", 1))
    if chi.num_colors != m:
        raise ValueError(f"payload claims {m} colors, ids use {chi.num_colors}")
    return chi


def rainbow_free_to_text(rep: RainbowFreeReport) -> str:
    if rep.free:
        return "rainbow-free: yes\n"
    lines = ["rainbow-free: no", f"member: {rep.member_index}"]
    lines += (f"  edge {' '.join(map(str, e))} color {c}" for e, c in rep.witness.edge_colors)
    return "\n".join(lines) + "\n"


def rainbow_free_to_json(rep: RainbowFreeReport) -> dict:
    if rep.free:
        return {"free": True}
    w = rep.witness
    return {
        "free": False,
        "member_index": rep.member_index,
        "witness": {
            "images": list(w.embedding.images),
            "edges": [{"edge": list(e), "color": c} for e, c in w.edge_colors],
        },
    }


def _witness_to_json(w: object) -> Optional[dict]:
    if w is None:
        return None
    if isinstance(w, Hypergraph):
        return {"kind": "hypergraph", **hypergraph_to_json(w)}
    if isinstance(w, Coloring):
        return {"kind": "coloring", **coloring_to_json(w)}
    raise TypeError(f"unserializable witness {type(w).__name__}")


def report_to_json(rep: SearchReport) -> dict:
    return {
        "instance": rep.instance,
        "value": rep.value,
        "status": rep.status,
        "witness": _witness_to_json(rep.witness),
        "nodes": rep.nodes,
        "elapsed_ms": rep.elapsed * 1000.0,
    }


def report_from_json(d: dict) -> SearchReport:
    w = _json_field(d, "witness", "an object or null",
                    lambda v: v is None or isinstance(v, dict))
    if w is not None:
        kind = _json_field(w, "kind", "'hypergraph' or 'coloring'",
                           lambda v: v in ("hypergraph", "coloring"))
        w = hypergraph_from_json(w) if kind == "hypergraph" else coloring_from_json(w)
    value = _json_field(d, "value", "an integer or null", lambda v: v is None or _is_int(v))
    elapsed_ms = _json_field(d, "elapsed_ms", "a number",
                             lambda v: _is_int(v) or isinstance(v, float))
    instance = _json_field(d, "instance", "an object", lambda v: isinstance(v, dict))
    _json_field(instance, "problem", "'turan' or 'anti_ramsey'",
                lambda v: v in ("turan", "anti_ramsey"))
    for name, depth in (("n", 0), ("r", 0), ("patterns", 3)):
        _json_ints(instance, name, depth)
    if "below" in instance:  # reports written before the ladder lack it
        _json_field(instance, "below", "an integer or null", lambda v: v is None or _is_int(v))
    return SearchReport(
        value=value,
        witness=w,
        nodes=_json_ints(d, "nodes"),
        elapsed=elapsed_ms / 1000.0,
        status=_json_field(d, "status", "'exact' or 'budget_exhausted'",
                           lambda v: v in ("exact", "budget_exhausted")),
        instance=instance,
    )


def report_to_text(rep: SearchReport) -> str:
    inst = rep.instance
    lines = [
        f"problem: {inst['problem']}  n={inst['n']}  r={inst['r']}",
        f"status:  {rep.status}",
        f"value:   {rep.value if rep.value is not None else 'unknown'}",
        f"nodes:   {rep.nodes}   elapsed: {rep.elapsed:.3f}s",
    ]
    if isinstance(rep.witness, Hypergraph):
        lines.append("witness hypergraph:")
        lines.append(hypergraph_to_text(rep.witness).rstrip("\n"))
    elif isinstance(rep.witness, Coloring):
        lines.append("witness coloring:")
        lines.append(coloring_to_text(rep.witness).rstrip("\n"))
    else:
        lines.append("witness: none")
    return "\n".join(lines) + "\n"


def bounds_to_json(table: BoundsTable) -> dict:
    return {
        "n": table.n,
        "r": table.r,
        "base": hypergraph_to_json(table.base),
        "target": hypergraph_to_json(table.target),
        "ar_value": table.ar_value,
        "ar_status": table.ar_status,
        "hard_ok": table.hard_ok,
        "rows": [asdict(row) for row in table.rows],
    }


def bounds_to_text(table: BoundsTable) -> str:
    lines = [
        f"bounds at n={table.n}, r={table.r}, target edges={table.target.num_edges}",
        f"ar = {table.ar_value if table.ar_value is not None else 'unknown'}"
        f" ({table.ar_status})",
    ]
    for row in table.rows:
        lhs = "?" if row.lhs is None else row.lhs
        rhs = "?" if row.rhs is None else row.rhs
        kind = "hard" if row.hard else "soft"
        tail = f"  # {row.note}" if row.note else ""
        lines.append(
            f"  {row.name:<18} {lhs} {row.relation} {rhs}"
            f"  [{row.verdict}, {kind}]{tail}"
        )
    lines.append(f"hard bounds ok: {'yes' if table.hard_ok else 'NO'}")
    return "\n".join(lines) + "\n"


def suite_to_json(rows) -> dict:
    """verify-paper's check rows (verify.CheckRow), one object each."""
    return {"rows": [asdict(row) for row in rows]}


def dumps(obj: dict) -> str:
    """Deterministic JSON rendering shared by the CLI."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
