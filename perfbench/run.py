"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload tune_cold --seed 0

runs the workload untraced for ``run_seconds`` (``BENCHMARK.json``) and
prints every end-to-end metric by name with its unit, the units
attempted and failed, and a correctness verdict.  ``--trace 1`` is the
separate traced run that prints the per-layer metrics instead and
writes its spans to ``perfbench/out/trace-<workload>.json``.  The last
line of standard output is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — and the full result (with the
environment it was measured in) lands in ``perfbench/out/``.  Exit code
0 only when every check passed.

``--quick`` shrinks every cycle and fixes two repetitions: a smoke test
of the plumbing (``perfbench/tests``), never a source of numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

if __package__ in (None, ""):
    # Executed as a script: sys.path[0] is perfbench/ itself, where
    # module names could shadow the standard library's.
    sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench import harness  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402


def load_spec() -> dict:
    """``BENCHMARK.json`` — the one place metric names and units live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(wl, result: harness.RunResult) -> dict:
    cycle_s = result.cycle_s
    return {
        "cycle_ms": cycle_s * 1e3,
        "work_per_s": wl.work / cycle_s,
        "peak_rss_mb": harness.peak_rss_mb(),
        "setup_s": min(result.setup_times) * result.clock_scale,
    }


def per_layer(wl, result: harness.RunResult, tracer: Tracer) -> dict:
    scale = result.clock_scale
    agg = harness.TraceAggregate(tracer, result.samples, scale)
    cycle_s = result.cycle_s
    metrics = wl.layer_metrics(agg)
    metrics.update({
        "harness.cycle_p50_ms":
            statistics.median(result.cycle_times) * scale * 1e3,
        "harness.cycle_max_ms": max(result.cycle_times) * scale * 1e3,
        "harness.unit_max_ms": max(agg.plain_min.values()) * 1e3,
        "harness.cycle_raw_ms": cycle_s / scale * 1e3,
        "harness.clock_scale": scale,
        "harness.units": len(wl.units),
        "harness.reps": result.reps,
        "harness.layers_cover_frac": agg.covered_s() / cycle_s,
        "harness.noise_ratio": result.noise_ratio,
        "harness.trace_overhead_frac":
            harness.sum_of_minima(result.staged_samples) * scale / cycle_s
            - 1.0,
    })
    return metrics


def setup_child(args) -> int:
    """What a fresh user process pays: lay out the workload, run unit 1."""
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.quick, Path(args.state_dir))
    ctx = wl.begin_rep()
    try:
        reason = wl.units[0].run(ctx)
    finally:
        wl.close_rep(ctx)
    if reason is not None:
        print(f"setup child: {reason}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--state-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if any(os.environ.get(k) != v for k, v in harness.PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **harness.PINNED_ENV})
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(args)

    from perfbench.workloads import WORKLOADS

    t_start = time.perf_counter()
    traced = bool(args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    state_dir = Path(tempfile.mkdtemp(prefix=f"state-{args.workload}-",
                                      dir=OUT))
    tracer = Tracer() if traced else None
    try:
        wl = WORKLOADS[args.workload](args.seed, args.quick, state_dir)
        wl.prepare()
        result = harness.run_workload(
            wl, seconds=args.seconds, tracer=tracer,
            fixed_reps=(4 if traced else 2) if args.quick else None,
        )
        values = (per_layer(wl, result, tracer) if traced
                  else end_to_end(wl, result))
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)

    declared = spec["per_layer"] if traced else spec["end_to_end"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    # A layer this workload never enters reports 0: no calls, no time.
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in declared
    }
    failed = len({f.split(":", 1)[0] for f in result.failures})
    correct = failed == 0
    if traced:
        tracer.write(OUT / f"trace-{args.workload}.json")

    noise = result.noise_ratio
    record = {
        "workload": args.workload,
        "traced": traced,
        "quick": args.quick,
        "correct": correct,
        "attempted": result.attempted,
        "failed": failed,
        "failures": result.failures[:20],
        "metrics": metrics,
        "emitted": sorted(values),
        "reps": result.reps,
        "units": len(wl.units),
        "work": {"count": wl.work, "unit": wl.work_unit},
        "setup_times_s": result.setup_times,
        "cycle_times_s": result.cycle_times,
        "calibration_s": result.calibration,
        "unit_min_ms": {u: min(ts) * 1e3 for u, ts in result.samples.items()},
        "harness.noise_ratio": noise,
        "noisy": noise > harness.NOISY_RATIO,
        "clock_scale": result.clock_scale,
        "wall_s": time.perf_counter() - t_start,
        "environment": harness.environment(args.seed),
    }
    kind = "trace" if traced else "e2e"
    (OUT / f"result-{args.workload}-{kind}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if traced else 'untraced'}  reps {result.reps}  "
          f"units/cycle {len(wl.units)}  work/cycle {wl.work:g} "
          f"{wl.work_unit}")
    for name, m in metrics.items():
        if name in values:
            print(f"  {name:34s} {m['value']:16.6f} {m['unit']}")
    print(f"  noise_ratio {noise:.3f}"
          f"{'  NOISY' if record['noisy'] else ''}  "
          f"wall {record['wall_s']:.1f} s")
    for failure in result.failures[:20]:
        print(f"  FAILED {failure}")
    print(f"units attempted {result.attempted}  failed {failed}  "
          f"verdict {'correct' if correct else 'INCORRECT'}")
    print(json.dumps({
        "correct": correct, "attempted": result.attempted,
        "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
