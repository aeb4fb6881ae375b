"""A/A check: does the benchmark agree with itself within its own bounds?

    python3 perfbench/aa.py [--seeds N] [--seed0 S]
    python3 perfbench/aa.py --files A.json B.json

Runs the full set (every workload: ``N`` untraced runs on seeds
``S..S+N-1``, plus one traced run) twice back to back on the same code —
or takes two result files written by ``--save`` — and prints, per
workload and end-to-end metric, each set's median, its spread
(first-to-third-quartile distance as a share of the median, for N ≥ 2),
and the relative difference of the two medians against the metric's
bound.  Per-layer metrics that are exact counts must be identical
between the sets.  Writes ``perfbench/out/aa.json``; exits non-zero if
any difference or spread (``setup_s``'s spread excepted) exceeds its
bound, any count differs, or any unit failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Per-layer metrics that count things: two runs of one program on one
#: seed must report them bit for bit.
EXACT = (
    "core.build_count", "core.ir_ops", "compile.table_bytes",
    "compile.nclasses", "simnet.messages", "simnet.fallbacks",
    "bench.sweep.build_hit_frac", "bench.sweep.sim_hit_frac",
    "server.config.bytes", "server.wire_bytes", "store.hit_frac",
    "store.index_keys", "store.bytes_on_disk", "harness.units",
)


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run; its final-line JSON object."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(
            f"{workload} seed {seed} trace {trace}: rc={proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(spec: dict, seeds: list, label: str) -> dict:
    """``{workload: {"e2e": [run, ...], "trace": run}}`` for one set."""
    out = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(wl, seed, 0))
            print(f"  set {label} {wl} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.5g}"
                for k, v in runs[-1]["metrics"].items()
            ), flush=True)
        out[wl] = {"e2e": runs, "trace": run_once(wl, seeds[0], 1)}
    return out


def spread(values: list) -> float:
    """Quartile distance over median (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(spec: dict, a: dict, b: dict) -> dict:
    rows, problems = [], []
    for wl in (w["name"] for w in spec["workloads"]):
        for side, runs in (("A", a[wl]), ("B", b[wl])):
            bad = [r for r in runs["e2e"] + [runs["trace"]]
                   if not r["correct"] or r["failed"]]
            if bad:
                problems.append(f"{wl} set {side}: {len(bad)} run(s) "
                                f"with failed units")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a[wl]["e2e"]]
            vb = [r["metrics"][name]["value"] for r in b[wl]["e2e"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            diff = (mb - ma) / ma
            row = {
                "workload": wl, "metric": name, "bound": bound,
                "median_a": ma, "median_b": mb, "rel_diff": diff,
                "spread_a": spread(va), "spread_b": spread(vb),
            }
            rows.append(row)
            if abs(diff) > bound:
                problems.append(f"{wl}/{name}: medians differ by "
                                f"{diff:+.1%} (bound {bound:.0%})")
            worst = max(row["spread_a"], row["spread_b"])
            if name != "setup_s" and worst > bound:
                problems.append(f"{wl}/{name}: spread {worst:.1%} "
                                f"exceeds bound {bound:.0%}")
        ta, tb = a[wl]["trace"]["metrics"], b[wl]["trace"]["metrics"]
        for name in EXACT:
            if ta[name]["value"] != tb[name]["value"]:
                problems.append(
                    f"{wl}/{name}: exact count differs "
                    f"({ta[name]['value']} vs {tb[name]['value']})"
                )
    return {"rows": rows, "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=1,
                    help="untraced runs per workload per set")
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--files", nargs=2, metavar=("A", "B"),
                    help="compare two saved sets instead of running")
    ap.add_argument("--save", nargs=2, metavar=("A", "B"),
                    help="also write the two sets here")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.files:
        a, b = (json.loads(Path(f).read_text()) for f in args.files)
    else:
        seeds = list(range(args.seed0, args.seed0 + args.seeds))
        a = run_set(spec, seeds, "A")
        b = run_set(spec, seeds, "B")
        if args.save:
            for path, data in zip(args.save, (a, b)):
                Path(path).write_text(json.dumps(data))
    report = compare(spec, a, b)

    print(f"{'workload':14s} {'metric':12s} {'median A':>13s} "
          f"{'median B':>13s} {'B vs A':>8s} {'spread A':>9s} "
          f"{'spread B':>9s} {'bound':>6s}")
    for r in report["rows"]:
        print(f"{r['workload']:14s} {r['metric']:12s} "
              f"{r['median_a']:13.4f} {r['median_b']:13.4f} "
              f"{r['rel_diff']:+8.2%} {r['spread_a']:9.2%} "
              f"{r['spread_b']:9.2%} {r['bound']:6.0%}")
    for problem in report["problems"]:
        print(f"EXCESS {problem}")
    print("A/A:", "agrees within bounds" if not report["problems"]
          else f"{len(report['problems'])} problem(s)")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "aa.json").write_text(json.dumps(report, indent=1))
    return 1 if report["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
