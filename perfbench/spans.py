"""Span recorder for the traced benchmark run.

The recorder wraps the public functions each layer of ``arl`` exposes, at
every name a caller binds them under (``arl.exact_turan`` and
``arl.search.exact_turan`` are the same function bound twice), and restores
the originals afterwards.  Nothing inside ``src/arl`` is changed.

A span is (layer, start, end, parent, instance) plus four integers: the work
the call reports (solver nodes, embedder inner nodes or family members), the
number of ``color_at`` lookups made by an embedder call, whether the call
found something, and whether the span starts a call.  Spans live in flat
arrays for the whole run and are written out once, when the run ends.

A traced function that a later version of the library no longer has is
skipped, and its layer reads 0.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from array import array
from pathlib import Path

# a span's layer is stored as an index into this tuple
LAYERS = (
    "search",
    "witness",
    "embedder.anchored",
    "embedder.free",
    "containment",
    "canonical",
    "constructions",
)
SEARCH, WITNESS, ANCHORED, FREE, CONTAINMENT, CANONICAL, CONSTRUCTIONS = range(len(LAYERS))

_clock = time.perf_counter


class Tracer:
    """Records spans around calls into the library while installed."""

    def __init__(self) -> None:
        self.layer = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.inst = array("l")
        self.work = array("q")
        self.lookups = array("q")
        self.hit = array("B")
        # 1 when the span starts a call; 0 for the later resumptions of a
        # generator, which are spans of their own but not new calls
        self.entry = array("B")
        self.instances: list[str] = []
        self._inst = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    def set_instance(self, name: str) -> None:
        """Tag the spans that follow with this instance id."""
        self.instances.append(name)
        self._inst = len(self.instances) - 1

    def _open(self, layer: int, entry: int = 1) -> int:
        i = len(self.start)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.inst.append(self._inst)
        self.work.append(0)
        self.lookups.append(0)
        self.hit.append(0)
        self.entry.append(entry)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(_clock())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = _clock()
        self._stack.pop()

    # -------------------------------------------------------------- wrappers

    def _wrap_call(self, fn, layer: int, work=None):
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tr._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._close(i)
            if work is not None:
                tr.work[i] = work(out)
            return out

        return traced

    def _wrap_find(self, fn):
        tr = self

        @functools.wraps(fn)
        def find(em, color_at, anchor=None, max_nodes=None):
            lookups = 0

            def counted(img):
                nonlocal lookups
                lookups += 1
                return color_at(img)

            i = tr._open(FREE if anchor is None else ANCHORED)
            try:
                hit, nodes = fn(em, counted, anchor, max_nodes)
            finally:
                tr._close(i)
                tr.lookups[i] = lookups
            tr.work[i] = nodes
            tr.hit[i] = hit is not None
            return hit, nodes

        return find

    def _wrap_generator(self, fn, layer: int):
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            entry = 1
            while True:
                i = tr._open(layer, entry)
                entry = 0
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tr._close(i)
                yield item

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Replace each traced function at every name ``arl`` binds it to."""
        import arl
        from arl import canonical, coloring, constructions, hypergraph, search

        def nodes(rep):
            return rep.nodes

        plain = [
            (search, "exact_turan", SEARCH, nodes),
            (search, "exact_anti_ramsey", SEARCH, nodes),
            (search, "verify_feasibility", WITNESS, None),
            (hypergraph, "has_copy", CONTAINMENT, None),
            (canonical, "canonical_form", CANONICAL, None),
            (canonical, "canonical_key", CANONICAL, None),
            (constructions, "splitting_family", CONSTRUCTIONS, len),
            (constructions, "minus_family", CONSTRUCTIONS, len),
            (constructions, "expansion", CONSTRUCTIONS, None),
            (constructions, "turan_hypergraph", CONSTRUCTIONS, None),
        ]
        originals = {}
        wrappers = {}
        for module, name, layer, work in plain:
            fn = getattr(module, name, None)
            if fn is not None:
                originals[name] = fn
                wrappers[id(fn)] = self._wrap_call(fn, layer, work)
        enum = getattr(hypergraph, "enumerate_copies", None)
        if enum is not None:
            wrappers[id(enum)] = self._wrap_generator(enum, CONTAINMENT)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "arl" or name.startswith("arl."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        cls = coloring.RainbowEmbedder
        self._patch(cls, "find", self._wrap_find(cls.find))
        if any(getattr(arl, name, None) is fn for name, fn in originals.items()):
            raise RuntimeError("tracer failed to rebind a function of arl")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ reporting

    def layer_totals(self, instances: set[int]) -> dict[str, float]:
        """Per-layer counts and times over the spans of the given instances.

        A layer's time and call count use its outermost spans only (a span
        whose parent is of another layer), so nested calls such as
        canonical_key -> canonical_form count once.  Self time is a span's
        duration minus the durations of its direct children.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {f"{LAYERS[k]}.{f}": 0.0 for k in range(len(LAYERS))
               for f in ("calls", "s", "self_s", "work", "lookups", "hits")}
        for i in range(n):
            if self.inst[i] not in instances:
                continue
            k = self.layer[i]
            p = self.parent[i]
            if p >= 0 and self.layer[p] == k:
                continue
            name = LAYERS[k]
            dur = self.end[i] - self.start[i]
            out[f"{name}.calls"] += self.entry[i]
            out[f"{name}.s"] += dur
            out[f"{name}.self_s"] += dur - child[i]
            out[f"{name}.work"] += self.work[i]
            out[f"{name}.lookups"] += self.lookups[i]
            out[f"{name}.hits"] += self.hit[i]
        return out

    def write(self, path: Path) -> int:
        """Write every span as one tab-separated line; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("layer\tstart\tend\tparent\tinstance\twork\tlookups\thit\tentry\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{LAYERS[self.layer[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                    f"{self.parent[i]}\t{self.instances[self.inst[i]]}\t"
                    f"{self.work[i]}\t{self.lookups[i]}\t{self.hit[i]}\t{self.entry[i]}\n"
                )
        return len(self.start)


def per_layer_metrics(
    totals: list[dict[str, float]],
    setup: dict[str, float],
    check: list[dict[str, float]],
    traced_walls: list[float],
    scale: float,
    traced_wall: float,
    plain_wall: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    totals and check hold one layer_totals() dict per traced pass, for the
    timed window and for the correctness check after it, and traced_walls the
    raw seconds of those passes; setup is the layer_totals() of input
    generation.  Span times are multiplied by scale.  traced_wall and
    plain_wall are the median traced and untraced pass times, already scaled.
    Every value is the median over the traced passes.
    """
    def med(key: str, rows=totals) -> float:
        return statistics.median(row[key] for row in rows)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["search.nodes"] = med("search.work")
    m["search.s"] = scale * med("search.s")
    m["search.self_s"] = scale * med("search.self_s")
    m["search.nodes_per_s"] = ratio(m["search.nodes"], plain_wall) if m["search.nodes"] else 0.0
    for kind in ("anchored", "free"):
        layer = f"embedder.{kind}"
        calls = med(f"{layer}.calls")
        secs = scale * med(f"{layer}.s")
        m[f"{layer}.calls"] = calls
        m[f"{layer}.s"] = secs
        m[f"{layer}.us_per_call"] = 1e6 * ratio(secs, calls)
        m[f"{layer}.inner_nodes"] = med(f"{layer}.work")
        if kind == "anchored":
            m[f"{layer}.hit_ratio"] = ratio(med(f"{layer}.hits"), calls)
            m[f"{layer}.share"] = statistics.median(
                ratio(row[f"{layer}.s"], wall) for row, wall in zip(totals, traced_walls))
    lookups = med("embedder.anchored.lookups") + med("embedder.free.lookups")
    inner = m["embedder.anchored.inner_nodes"] + m["embedder.free.inner_nodes"]
    m["keying.lookups"] = lookups
    m["keying.lookups_per_inner_node"] = ratio(lookups, inner)
    m["containment.calls"] = med("containment.calls")
    m["containment.s"] = scale * med("containment.s")
    m["canonical.calls"] = med("canonical.calls")
    m["canonical.s"] = scale * med("canonical.s")
    m["canonical.us_per_call"] = 1e6 * ratio(m["canonical.s"], m["canonical.calls"])
    m["canonical.setup_calls"] = setup["canonical.calls"]
    m["canonical.setup_s"] = scale * setup["canonical.s"]
    m["constructions.family_s"] = scale * med("constructions.s")
    m["constructions.members"] = med("constructions.work")
    m["witness.calls"] = med("witness.calls", check)
    m["witness.s"] = scale * med("witness.s", check)
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - plain_wall
    return m
