"""The three benchmark workloads: seeded inputs, timed operations, checks.

Each workload builds two input sets from its seed, A and B.  They differ only
in vertex names: every pattern and every host is relabeled by its own seeded
permutation, and in ``zoo`` the seed also picks which edge of a lower-bound
coloring gets a fresh color.  Passes alternate between A and B, so one run
also checks that answers and solver node counts do not depend on labels.

run_pass() is the timed part: it only calls the public ``arl`` API.
check() runs afterwards, outside the timed window, and returns one error
string (or None) per operation.
"""

from __future__ import annotations

import itertools
import random
import time
import traceback
from math import comb
from typing import Callable, Optional

import arl
import reference

Tag = Callable[[str], None]


def pattern(name: str) -> arl.Hypergraph:
    if name == "K4^3":
        return arl.complete_hypergraph(4, 3)
    return arl.named_hypergraph(name)


def shuffled(h: arl.Hypergraph, rng: random.Random) -> tuple[arl.Hypergraph, list[int]]:
    """h with its vertices renamed by a seeded permutation, and the permutation."""
    perm = list(range(h.n))
    rng.shuffle(perm)
    return arl.relabel(h, perm), perm


def same_class(a: arl.Hypergraph, b: arl.Hypergraph) -> None:
    """Guard on input generation: relabeling must not change the pattern."""
    if arl.canonical_key(a) != arl.canonical_key(b):
        raise RuntimeError(f"generated {a} is not isomorphic to its reference {b}")


def colex_rank(edge: tuple[int, ...]) -> int:
    """Index of a sorted r-set in colex order, computed here rather than by
    the library so the checks do not trust the code under test."""
    return sum(comb(v, i + 1) for i, v in enumerate(edge))


def timed_ops(ops: list[tuple[str, Callable[[], object]]], before: Tag) -> list[tuple[str, object, float]]:
    """Run and time each operation, calling before(op_id) outside its timing.
    An exception becomes the operation's outcome."""
    out = []
    for op_id, fn in ops:
        before(op_id)
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # one failing operation must not stop the run
            result = OpError(traceback.format_exc(limit=3))
        out.append((op_id, result, time.perf_counter() - t0))
    return out


class OpError:
    """Outcome of an operation that raised."""

    def __init__(self, text: str):
        self.text = text

    def __str__(self) -> str:
        return "raised: " + self.text.strip().splitlines()[-1]


# ------------------------------------------------------------------ solvers


class SolverWorkload:
    """exact_turan or exact_anti_ramsey on the instances of the reference table."""

    def __init__(self, problem: str, seed: int):
        self.problem = problem
        rng = random.Random(f"{problem}:{seed}")
        names = [k for k, row in reference.SOLVER.items() if row[0] == problem]
        self.variants = []
        for _ in range(2):
            inputs = []
            for name in names:
                _, n, pattern_names, *_ = reference.SOLVER[name]
                pats = []
                for pname in pattern_names:
                    ref = pattern(pname)
                    relabeled, _ = shuffled(ref, rng)
                    same_class(relabeled, ref)
                    pats.append(relabeled)
                inputs.append((name, n, pats))
            self.variants.append(inputs)

    def run_pass(self, inputs, before: Tag):
        solve = arl.exact_turan if self.problem == "turan" else arl.exact_anti_ramsey
        ops = []
        for name, n, pats in inputs:
            arg = pats[0] if len(pats) == 1 else pats
            ops.append((name, lambda n=n, arg=arg: solve(n, arg)))
        return timed_ops(ops, before)

    def check(self, inputs, outcomes, tag: Tag) -> list[Optional[str]]:
        errors = []
        for op_id, rep, _ in outcomes:
            tag("check:" + op_id)
            errors.append(self._check_one(op_id, rep))
        return errors

    @staticmethod
    def _check_one(op_id: str, rep) -> Optional[str]:
        if isinstance(rep, OpError):
            return str(rep)
        _, _, _, value, _, _, _ = reference.SOLVER[op_id]
        if rep.status != "exact":
            return f"status {rep.status}"
        if rep.value != value:
            return f"value {rep.value}, reference {value}"
        if not arl.verify_feasibility(rep):
            return "witness rejected by verify_feasibility"
        return None

    @staticmethod
    def fingerprint(result) -> object:
        """What must not change between passes and relabelings."""
        return None if isinstance(result, OpError) else (result.value, result.nodes)

    @staticmethod
    def describe(op_id: str, result) -> str:
        if isinstance(result, OpError):
            return str(result)
        pin = reference.SOLVER[op_id][6]
        note = "" if result.nodes == pin else f" (pinned {pin}: pruning changed)"
        return f"value {result.value}, {result.status}, nodes {result.nodes}{note}"


# ---------------------------------------------------------------------- zoo


class ZooWorkload:
    """Pattern families and lower-bound colorings, checked without a solver.

    Families: splitting and minus families of the 3-uniform expansions of
    K4, C5 and C4.  Colorings: a Turan host T whose edges get distinct
    colors, plus one extra color on every other edge.  T has no copy of any
    member of the pattern's minus family, so a rainbow copy, which uses at
    most one extra-colored edge, cannot exist: the negative is certified by
    those has_copy checks.  Giving one more edge a fresh color, an edge that
    meets r-1 parts, creates a rainbow copy, whose witness is checked edge by
    edge.
    """

    EXPANDED = ("K4", "C5", "C4")

    def __init__(self, seed: int):
        rng = random.Random(f"zoo:{seed}")
        self.variants = []
        for _ in range(2):
            exps = []
            for name in self.EXPANDED:
                ref = arl.expansion(pattern(name), 3)
                relabeled, _ = shuffled(ref, rng)
                same_class(relabeled, ref)
                exps.append((f"{name}+3", relabeled))
            cases = []
            for case, (pname, n, ell, r, _) in reference.LOWER_BOUND.items():
                cases.append((case,) + self._lower_bound_case(pname, n, ell, r, rng))
            self.variants.append((exps, cases))

    @staticmethod
    def _lower_bound_case(pname, n, ell, r, rng):
        ref = pattern(pname)
        f, _ = shuffled(ref, rng)
        same_class(f, ref)
        host, perm = shuffled(arl.turan_hypergraph(n, ell, r), rng)
        part = [0] * n
        for v, p in enumerate(arl.turan_partition(n, ell).part_of):
            part[perm[v]] = p
        all_edges = sorted(itertools.combinations(range(n), r), key=lambda e: e[::-1])
        outside = [e for e in all_edges if e not in host.edge_set]
        fresh = rng.choice([e for e in outside if len({part[v] for v in e}) == r - 1])

        def coloring(extra_fresh):
            ids: dict = {}
            colors = []
            for e in all_edges:
                key = e if e in host.edge_set or e == extra_fresh else "extra"
                colors.append(ids.setdefault(key, len(ids)))
            return arl.make_coloring(n, r, colors)

        neg, pos = coloring(None), coloring(fresh)
        if neg.num_colors != host.num_edges + 1 or neg.num_colors < f.num_edges:
            raise RuntimeError(f"{pname} on {host}: {neg.num_colors} colors is too few")
        return f, host, neg, pos

    def run_pass(self, inputs, before: Tag):
        exps, cases = inputs
        ops = []
        for name, e in exps:
            ops.append((f"split({name})", lambda e=e: arl.splitting_family(e)))
            ops.append((f"minus({name})", lambda e=e: arl.minus_family(e)))
        for case, f, host, neg, pos in cases:
            ops.append((f"neg:{case}", lambda f=f, neg=neg: arl.find_rainbow_copy(neg, f)))
            ops.append((f"pos:{case}", lambda f=f, pos=pos: arl.find_rainbow_copy(pos, f)))
            ops.append((f"free:{case}", lambda f=f, host=host:
                        [arl.has_copy(m, host) for m in arl.minus_family(f)]))
        return timed_ops(ops, before)

    def check(self, inputs, outcomes, tag: Tag) -> list[Optional[str]]:
        exps, cases = inputs
        by_id = {op_id: result for op_id, result, _ in outcomes}
        source = {}
        for name, e in exps:
            source[f"split({name})"] = source[f"minus({name})"] = e
        case_of = {}
        for case, f, host, neg, pos in cases:
            for kind in ("neg", "pos", "free"):
                case_of[f"{kind}:{case}"] = (case, f, host, neg, pos)
        errors = []
        for op_id, result, _ in outcomes:
            tag("check:" + op_id)
            if isinstance(result, OpError):
                errors.append(str(result))
            elif op_id in source:
                errors.append(self._check_family(op_id, source[op_id], result))
            else:
                errors.append(self._check_case(op_id, case_of[op_id], result, by_id))
        return errors

    @staticmethod
    def _check_family(op_id, e, fam) -> Optional[str]:
        want = reference.FAMILY_SIZES[op_id]
        if len(fam) != want:
            return f"{len(fam)} members, reference {want}"
        edges = e.num_edges if op_id.startswith("split") else e.num_edges - 1
        if any(m.r != e.r or m.num_edges != edges for m in fam.members):
            return f"a member does not have {edges} edges of size {e.r}"
        return None

    @staticmethod
    def _check_case(op_id, case_row, result, by_id) -> Optional[str]:
        case, f, host, neg, pos = case_row
        kind = op_id.split(":", 1)[0]
        if kind == "free":
            want = reference.LOWER_BOUND[case][4]
            if len(result) != want:
                return f"{len(result)} minus-family members checked, reference {want}"
            return "host contains a minus-family member" if any(result) else None
        if kind == "neg":
            if result is not None:
                return "rainbow copy found in a lower-bound coloring"
            cert = by_id.get(f"free:{case}")
            if not isinstance(cert, list) or not cert or any(cert):
                return "negative not certified: host freeness check failed"
            return None
        return rainbow_witness_error(pos, f, result)

    @staticmethod
    def fingerprint(result) -> object:
        if isinstance(result, OpError):
            return None
        if isinstance(result, arl.Family):
            return len(result)
        if isinstance(result, list):
            return tuple(result)
        return result is None

    @staticmethod
    def describe(op_id: str, result) -> str:
        if isinstance(result, (OpError, list)):
            return str(result)
        if isinstance(result, arl.Family):
            return f"{len(result)} members"
        return "no rainbow copy" if result is None else "rainbow copy"


def rainbow_witness_error(chi, f, w) -> Optional[str]:
    """Validate a rainbow-copy witness edge by edge against the coloring."""
    if w is None:
        return "no rainbow copy found where one exists"
    images = w.embedding.images
    mapped = [images[v] for v in f.non_isolated]
    if any(x is None or not 0 <= x < chi.n for x in mapped) or len(set(mapped)) != len(mapped):
        return "embedding is not an injective map into the host"
    if len(w.edge_colors) != f.num_edges:
        return f"{len(w.edge_colors)} witness edges for {f.num_edges} pattern edges"
    seen = set()
    for e, (img, c) in zip(f.edges, w.edge_colors):
        if tuple(img) != tuple(sorted(images[u] for u in e)):
            return f"witness edge {img} is not the image of {e}"
        if chi.colors[colex_rank(tuple(img))] != c:
            return f"witness edge {img} carries color {c}, coloring says otherwise"
        if c in seen:
            return f"color {c} repeats"
        seen.add(c)
    return None


def make(name: str, seed: int):
    if name in ("turan", "anti_ramsey"):
        return SolverWorkload(name, seed)
    if name == "zoo":
        return ZooWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

