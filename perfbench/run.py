"""Benchmark of the arl solvers and pattern-zoo checks.

    python3 perfbench/run.py --workload turan --seed 1 --seconds 40 --trace 0

Workloads (see README.md in this directory for why each was chosen):
  turan        exact_turan on ex(8,K3), ex(7,K4), ex(6,K4^3), ex(7,{K3,C5})
  anti_ramsey  exact_anti_ramsey on ar(6,K3), ar(5,K4), ar(5,C4), ar(5,K4^3)
  zoo          splitting/minus families, find_rainbow_copy on lower-bound
               colorings, has_copy freeness checks; no solver

One process, one thread, one caller: a closed loop that runs a pass over the
workload's instance list, checks it outside the timed window, and starts the
next pass, until the next pass would end past --seconds (at least two passes,
one per relabeling).  The library is imported from ../src of this file.

--trace 0 prints the end-to-end metrics: wall_s (median pass time), setup_s
(median over fresh interpreters of the time from process start to the first
timed call) and peak_rss_mb.  --trace 1 alternates untraced and traced passes
and prints the per-layer metrics; the spans are written to
perfbench/out/spans-<workload>-<seed>.tsv.gz.  The last line of standard
output is always one JSON object with the metrics.

Every reported time is scaled to a reference machine speed.  The speed of a
shared machine drifts by tens of percent over minutes, and CPU time drifts
with wall time, so raw seconds of runs a few minutes apart are not
comparable.  A fixed pure-Python loop is timed just before every operation
and around the setup probes, outside the timed windows.  Each operation's
seconds, and so each pass time, are multiplied by CALIBRATION_REF_S / the
loop time just before the operation.  The median setup probe, and the span
times of a traced run, are scaled by CALIBRATION_REF_S / the median of the
loop times taken around them.  The report prints the raw values too.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
MIN_PASSES = 2
CALIBRATION_LOOPS = 100_000
CALIBRATION_REF_S = 0.008

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "search.nodes": "count",
    "search.s": "s",
    "search.self_s": "s",
    "search.nodes_per_s": "1/s",
    "embedder.anchored.calls": "count",
    "embedder.anchored.s": "s",
    "embedder.anchored.us_per_call": "us",
    "embedder.anchored.inner_nodes": "count",
    "embedder.anchored.hit_ratio": "ratio",
    "embedder.anchored.share": "ratio",
    "embedder.free.calls": "count",
    "embedder.free.s": "s",
    "embedder.free.us_per_call": "us",
    "embedder.free.inner_nodes": "count",
    "keying.lookups": "count",
    "keying.lookups_per_inner_node": "ratio",
    "containment.calls": "count",
    "containment.s": "s",
    "canonical.calls": "count",
    "canonical.s": "s",
    "canonical.us_per_call": "us",
    "canonical.setup_calls": "count",
    "canonical.setup_s": "s",
    "constructions.family_s": "s",
    "constructions.members": "count",
    "witness.calls": "count",
    "witness.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def import_library():
    """Import arl from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import arl

    if not Path(arl.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"arl was imported from {arl.__file__}, not from {src}")
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def calibrate() -> float:
    """Seconds of a fixed integer loop.  Its drift tracks the drift of the
    workloads' timings more closely than loops of tuple or dict work, whose
    own timings drift more than the workloads do."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Start-to-first-timed-call seconds of fresh interpreters, and the
    calibration times taken between them.

    Both sides read CLOCK_MONOTONIC, which the whole machine shares, so the
    child's reading minus the parent's reading before the spawn covers
    process start, interpreter start, import arl and input generation.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    out, calib = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"setup probe failed:\n{done.stderr}")
        out.append(float(done.stdout.split()[-1]) - t0)
        calib.append(calibrate())
    return out, calib


def tail_percentile(samples: list[float]) -> str:
    """Highest nearest-rank percentile with at least ten samples above it."""
    xs = sorted(samples)
    k = len(xs) - 11
    if k < 0:
        return f"no percentile has 10 samples beyond it (n={len(xs)})"
    pct = 100.0 * k / (len(xs) - 1)
    return f"p{pct:.0f} = {xs[k]:.4f} s (n={len(xs)})"


def variant_of(i: int, trace: bool) -> int:
    # untraced: A B A B ...; traced runs pair passes as (plain, traced) and
    # go A B | B A | A B ... so both relabelings meet both kinds of pass
    return (i + i // 2) % 2 if trace else i % 2


def run(args) -> int:
    workloads = import_library()
    import reference
    import spans

    table_errors = reference.check_table()
    if table_errors:
        raise SystemExit("reference table disagrees with its closed forms: "
                         + "; ".join(table_errors))

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.set_instance("setup")
    wl = workloads.make(args.workload, args.seed)
    setup_totals = tracer.layer_totals({0}) if tracer else None
    if tracer:
        tracer.uninstall()
    if args.probe_setup:
        print(time.monotonic())
        return 0

    setup, setup_calib = ([], []) if args.trace else measure_setup(args.workload, args.seed)

    def no_tag(_: str) -> None:
        pass

    calib: list[float] = []
    walls = {False: [], True: []}
    scaled_walls = {False: [], True: []}
    per_op_seconds: dict[str, list[float]] = {}
    fingerprints: dict[str, set] = {}
    results: dict[str, object] = {}
    layer_rows, check_rows = [], []
    attempted = failed = 0
    failures: list[str] = []
    began = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        inputs = wl.variants[variant_of(i, bool(args.trace))]
        tag = no_tag
        if traced:
            tracer.install()
            tag = lambda op, i=i: tracer.set_instance(f"p{i}:{op}")
            k0 = len(tracer.instances)

        def before_op(op: str, tag=tag) -> None:
            calib.append(calibrate())
            tag(op)

        outcomes = wl.run_pass(inputs, before_op)
        walls[traced].append(sum(seconds for _, _, seconds in outcomes))
        scaled_walls[traced].append(sum(seconds * CALIBRATION_REF_S / c for (_, _, seconds), c
                                        in zip(outcomes, calib[-len(outcomes):])))
        if traced:
            k1 = len(tracer.instances)
        errors = wl.check(inputs, outcomes, tag)
        if traced:
            tracer.uninstall()
            k2 = len(tracer.instances)
            layer_rows.append(tracer.layer_totals(set(range(k0, k1))))
            check_rows.append(tracer.layer_totals(set(range(k1, k2))))
        for (op_id, result, seconds), err in zip(outcomes, errors):
            attempted += 1
            per_op_seconds.setdefault(op_id, []).append(seconds)
            fingerprints.setdefault(op_id, set()).add(wl.fingerprint(result))
            results.setdefault(op_id, result)
            if err is not None:
                failed += 1
                failures.append(f"pass {i} {op_id}: {err}")
        i += 1
        elapsed = time.perf_counter() - began
        typical = statistics.median(walls[False] + walls[True])
        if i >= MIN_PASSES and elapsed + typical > args.seconds:
            break

    unstable = sorted(op for op, fps in fingerprints.items() if len(fps) > 1)
    for op in unstable:
        failures.append(f"{op}: answers or node counts differ between passes: {sorted(map(str, fingerprints[op]))}")
    correct = failed == 0 and not unstable

    print(f"workload {args.workload}, seed {args.seed}, {i} passes in {elapsed:.1f} s, "
          f"closed loop, 1 caller")
    print(f"operations attempted {attempted}, failed {failed}, "
          f"fail_share {failed / attempted:.4f}, correct {correct}")
    for line in failures[:20]:
        print("FAIL", line)
    print(f"{'operation':<24} {'median_s':>9}  answer")
    for op_id, secs in per_op_seconds.items():
        print(f"{op_id:<24} {statistics.median(secs):>9.4f}  {wl.describe(op_id, results[op_id])}")

    scale = CALIBRATION_REF_S / statistics.median(calib)
    print(f"calibration loop median {statistics.median(calib) * 1e3:.3f} ms over {len(calib)} "
          f"samples (reference {CALIBRATION_REF_S * 1e3:g} ms); times above are raw")
    if args.trace:
        metrics = spans.per_layer_metrics(
            layer_rows, setup_totals, check_rows, walls[True], scale,
            statistics.median(scaled_walls[True]), statistics.median(scaled_walls[False]))
        units = PER_LAYER_UNITS
        path = HERE / "out" / f"spans-{args.workload}-{args.seed}.tsv.gz"
        count = tracer.write(path)
        print(f"{count} spans written to {path.relative_to(ROOT)}")
    else:
        plain = walls[False]
        metrics = {
            "wall_s": statistics.median(scaled_walls[False]),
            "setup_s": statistics.median(setup) * CALIBRATION_REF_S / statistics.median(setup_calib),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"wall_s raw median {statistics.median(plain):.4f} s over {len(plain)} passes; "
              f"{tail_percentile(plain)}")
        print(f"wall_s raw samples {', '.join(f'{x:.4f}' for x in plain)}")
        print(f"wall_s scaled samples {', '.join(f'{x:.4f}' for x in scaled_walls[False])}; "
              f"{tail_percentile(scaled_walls[False])}")
        print(f"setup_s raw samples {', '.join(f'{x:.4f}' for x in setup)}")
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("turan", "anti_ramsey", "zoo"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
