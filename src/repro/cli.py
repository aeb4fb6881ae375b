"""Command-line entry points.

Eleven console scripts are installed with the package:

``repro-bench``
    Run one (or all) of the paper's experiments and print the figure data
    and shape checks: ``repro-bench fig8b``, ``repro-bench --list``,
    ``repro-bench all``.

``repro-tune``
    Generate a tuned MPICH-style selection configuration for a simulated
    machine and write it as the selection-config JSON document — the
    file ``repro-serve --grid`` and :meth:`repro.selection.SelectionConfig
    .load` read: ``repro-tune --machine frontier --nodes 32 -o
    tuned.json``.

``repro-validate``
    Symbolically verify schedules across a parameter grid (the quick
    confidence check after modifying an algorithm):
    ``repro-validate --collective allreduce --max-p 40``.

``repro-chaos``
    Sweep seeded fault scenarios (drops, duplicates, degraded links,
    stragglers, crashes) across the paper's ten generalized algorithms on
    both backends and check the resilience contract — every case either
    completes with correct results or raises a structured fault error:
    ``repro-chaos --p 8 --seed 0``; add ``--recover`` to heal the
    unmaskable faults through :mod:`repro.recovery` instead of merely
    classifying them.

``repro-recover``
    The self-healing layer standalone: demo one collective surviving a
    seeded mid-schedule rank crash (``repro-recover allreduce knomial
    --p 8 --crash-rank 1``), or sweep time-to-recovery vs radix across
    the whole algorithm suite and write the CI artifact
    (``repro-recover --sweep -o recovery_report.json``).

``repro-bench-perf``
    Run the perf gates — nine timing ratios and wall-clock budgets
    (cache speedup, recovery / observability / durability overheads,
    the p=4096 scale sweep, warm-started tunes), each judged inside the
    run against a fixed bound; exit 0 when all hold, 1 otherwise.  It
    takes no options: ``repro-bench-perf``.  Perf *claims* come from
    ``perfbench/``, not from here.

``repro-trace``
    Run one collective point under full observability and write a
    Perfetto/Chrome-loadable trace (host spans merged with the simulated
    message timeline on one timebase) plus a metrics snapshot (JSON and
    Prometheus text): ``repro-trace allreduce recursive_multiplying
    --p 64 --k 4 --nbytes 65536 -o trace.json``.

``repro-sweep``
    The crash-safe radix sweep: simulate a (algorithm × k × size) grid
    and write deterministic results JSON, journaling every completed
    point so an interrupted run resumes where it died:
    ``repro-sweep --collective allreduce --journal sweep.jsonl
    -o results.json``, then after a crash the same command with
    ``--resume``.  ``--store DIR`` persists built schedules across runs;
    the resumed results are bit-identical to an uninterrupted sweep.

``repro-adapt``
    The online adaptive selection loop (:mod:`repro.adapt`): drive a
    named drift scenario — a flapping NIC, a migrating straggler,
    multi-job contention, or a calm fabric — on a simulated machine and
    report cumulative regret and time-to-adapt against the per-round
    oracle, plus the full round-by-round trail as JSON:
    ``repro-adapt --scenario flap -o adapt_report.json``; add
    ``--check-jobs 2`` to prove the trail bit-identical across sweep
    fan-outs.

``repro-serve``
    The schedule-tuning service (:mod:`repro.server`): boot an asyncio
    HTTP daemon that answers ``/select`` queries from a tuned table,
    serves content-addressed compiled schedules from a disk store,
    coalesces concurrent identical ``/tune`` sweeps into single
    flights, exposes Prometheus ``/metrics``, and exports the
    MPICH-style selection-config artifact at ``/config``:
    ``repro-serve --machine reference --nodes 8 --port 8080``; add
    ``--grid tuned.json`` to warm-start boot from a ``repro-tune``
    document and ``--store DIR`` to persist schedules across restarts.
    SIGTERM shuts the service down cleanly (rc 0).

``repro-check``
    Static schedule analysis — deadlock (eager + rendezvous send
    semantics), intra-step buffer hazards, dataflow lint, and
    model-consistency checks, without running the simulator: one point
    (``repro-check allreduce knomial --p 16 --k 4``), a serialized
    schedule (``repro-check --schedule sched.json``), or the whole
    registry over the acceptance grid as the CI gate
    (``repro-check --all --jobs 4``).  ``--json`` emits the machine
    report; ``--strict`` fails on warnings too.

Every verb shares one skeleton: the machine, job-count, size-grid and
``--metrics-out`` flags come from one builder each, and one runner
owns the exit codes — a library error prints ``error: …`` and exits 2,
Ctrl-C prints what was (not) written and exits 130.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, List, Optional

# Each verb imports what it runs inside its own functions: a console
# script (and its --help) loads only its own subsystems.
from .errors import MachineError, ReproError

__all__ = [
    "main_bench",
    "main_tune",
    "main_validate",
    "main_chaos",
    "main_recover",
    "main_bench_perf",
    "main_trace",
    "main_check",
    "main_sweep",
    "main_adapt",
    "main_serve",
]


def _run(body: Callable[[argparse.Namespace], int],
         args: argparse.Namespace, interrupted: str) -> int:
    """Every verb's exit-code contract: ``body(args)``'s code, 2 after
    ``error: …`` for a :class:`~repro.errors.ReproError`, 130 after the
    verb's own ``interrupted`` line on Ctrl-C."""
    try:
        return body(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(f"\n{interrupted}", file=sys.stderr)
        return 130


def _machine_flags(parser: argparse.ArgumentParser, default: str,
                   nodes: Optional[int] = None) -> None:
    """``--machine`` plus its geometry: ``--nodes``/``--ppn``, or — with
    ``nodes=None`` — ``--ppn`` beside the verb's own ``--p``."""
    geometry = "--nodes/--ppn" if nodes is not None else "--p/--ppn"
    parser.add_argument("--machine", default=default,
                        help="base machine (frontier/polaris/reference, "
                        f"combined with {geometry}) or a self-contained "
                        "registry name like dragonfly-1024 or "
                        "frontier-64x8 (repro.simnet.machines.get)")
    if nodes is not None:
        parser.add_argument("--nodes", type=int, default=nodes)
    parser.add_argument("--ppn", type=int, default=1,
                        help="processes per node"
                        + (" (nodes = p / ppn)" if nodes is None else ""))


def _machine(args: argparse.Namespace):
    """The machine :func:`_machine_flags` names: a registry name with a
    ``-`` pins its own geometry (:func:`repro.simnet.machines.get`); a
    base name takes ``--nodes``, or ``--p`` split into whole nodes."""
    from .simnet.machines import by_name, get as machine_by_name

    if args.ppn < 1:
        raise MachineError(f"ppn must be >= 1, got {args.ppn}")
    nodes = getattr(args, "nodes", None)
    if nodes is None:
        if args.p % args.ppn:
            raise MachineError(f"p={args.p} not divisible by ppn={args.ppn}")
        nodes = args.p // args.ppn
    if "-" in args.machine:
        return machine_by_name(args.machine)
    return by_name(args.machine, nodes, args.ppn)


def _jobs_flag(parser: argparse.ArgumentParser, scope: str,
               invariant: str = "") -> None:
    """``-j/--jobs``, with ``invariant`` identical at any job count."""
    parser.add_argument("-j", "--jobs", type=int, default=0,
                        help=f"worker processes for {scope} (0/1 serial, "
                        "-1 all cores)"
                        + (f"; {invariant} identical at any job count"
                           if invariant else ""))


def _size_flags(parser: argparse.ArgumentParser, max_bytes: int) -> None:
    parser.add_argument("--min-bytes", type=int, default=8)
    parser.add_argument("--max-bytes", type=int, default=max_bytes)


def _tuning_sizes(args: argparse.Namespace) -> List[int]:
    """Tuning every power of two is slow in simulation; every other one
    (plus ``--max-bytes``) bounds the sweep while keeping cutoffs tight."""
    from .bench.osu import default_sizes

    sizes = default_sizes(args.min_bytes, args.max_bytes)
    return sizes[::2] + [sizes[-1]]


def _metrics_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="enable observability for the sweep and "
                        "write a metrics snapshot here (JSON; Prometheus "
                        "text beside it as .prom)")


@contextmanager
def _metrics_out(path: Optional[str]) -> Iterator[None]:
    """Observe the block; write a metrics snapshot to ``path`` however it
    ends, so an interrupted or failed run stays inspectable."""
    if not path:
        yield
        return
    from .obs import OBS

    OBS.reset()
    OBS.enable()
    try:
        yield
    finally:
        OBS.write_metrics(path)
        OBS.disable()
        print(f"wrote {path} (+ .prom)", file=sys.stderr)


def _write_report(path: str, doc, *, sort_keys: bool = False) -> None:
    """Write a verb's JSON report to ``path`` and say so."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=sort_keys)
                          + "\n")
    print(f"wrote {path}")


def main_bench(argv: Optional[List[str]] = None) -> int:
    """``repro-bench``: run paper experiments."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures on the "
        "simulated machines.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment id (e.g. fig8b), or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="also write the full report to a file",
    )
    return _run(_bench, parser.parse_args(argv), "interrupted")


def _bench(args: argparse.Namespace) -> int:
    from .bench.experiments import ALL_EXPERIMENTS, run_experiment

    if args.list or args.experiment is None:
        for exp_id in sorted(ALL_EXPERIMENTS):
            print(exp_id)
        return 0

    ids = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failures = 0
    sections = []
    for exp_id in ids:
        result = run_experiment(exp_id)
        summary = result.summary()
        print(summary)
        print()
        sections.append(summary)
        if not result.all_ok:
            failures += 1
    if args.output:
        Path(args.output).write_text("\n\n".join(sections) + "\n")
        print(f"wrote report to {args.output}")
    if failures:
        print(f"{failures} experiment(s) diverged from the paper's claims",
              file=sys.stderr)
    return 1 if failures else 0


def main_tune(argv: Optional[List[str]] = None) -> int:
    """``repro-tune``: generate a tuned selection configuration."""
    parser = argparse.ArgumentParser(
        prog="repro-tune",
        description="Exhaustively sweep the simulator and emit an "
        "MPICH-style selection configuration (paper §VI-G): the "
        "selection-config document repro-serve --grid reads.",
    )
    _machine_flags(parser, "frontier", nodes=32)
    _size_flags(parser, max_bytes=1 << 22)
    _jobs_flag(parser, "the sweep", "winners are")
    parser.add_argument("-o", "--output", default=None,
                        help="write the selection-config JSON here "
                        "(default: stdout)")
    _metrics_flag(parser)
    parser.add_argument("--check", action="store_true",
                        help="statically analyze every candidate schedule "
                        "(repro.check) before sweeping; refuse to tune "
                        "over one with error findings")
    # No partial document is written on Ctrl-C: a truncated selection
    # config would silently mis-tune.
    return _run(_tune, parser.parse_args(argv),
                "interrupted: no configuration written")


def _tune(args: argparse.Namespace) -> int:
    from .selection.tuner import tune

    with _metrics_out(args.metrics_out):
        config = tune(_machine(args), _tuning_sizes(args), jobs=args.jobs,
                      check=args.check)
    if args.output:
        config.save(args.output)
        print(f"wrote {args.output}")
        print(config.describe())
    else:
        print(config.to_json())
    return 0


def main_validate(argv: Optional[List[str]] = None) -> int:
    """``repro-validate``: symbolic verification sweep."""
    from .names import COLLECTIVES

    parser = argparse.ArgumentParser(
        prog="repro-validate",
        description="Symbolically verify collective schedules across a "
        "(p, k, root) grid.",
    )
    parser.add_argument("--collective", default=None, choices=COLLECTIVES)
    parser.add_argument("--algorithm", default=None)
    parser.add_argument("--max-p", type=int, default=24)
    parser.add_argument(
        "--dump",
        default=None,
        metavar="PATH",
        help="additionally write one verified schedule as JSON "
        "(requires --collective, --algorithm and --dump-p)",
    )
    parser.add_argument("--dump-p", type=int, default=8)
    parser.add_argument("--dump-k", type=int, default=None)
    return _run(_validate, parser.parse_args(argv), "interrupted")


def _validate(args: argparse.Namespace) -> int:
    from .core.registry import COLLECTIVES, algorithms_for, build_schedule, info
    from .core.validate import verify

    if args.dump:
        if not (args.collective and args.algorithm):
            raise ReproError("--dump needs --collective and --algorithm")
        from .core.serialize import save_schedule

        sched = build_schedule(
            args.collective, args.algorithm, args.dump_p, k=args.dump_k
        )
        verify(sched)
        save_schedule(sched, args.dump)
        print(f"verified and wrote {sched.describe()} to {args.dump}")
        return 0

    colls = [args.collective] if args.collective else list(COLLECTIVES)
    count = 0
    for coll in colls:
        algs = [args.algorithm] if args.algorithm else algorithms_for(coll)
        for alg in algs:
            entry = info(coll, alg)
            for p in range(1, args.max_p + 1):
                ks = [None]
                if entry.takes_k:
                    ks = sorted({entry.min_k, 2, 3, 4, p, p + 1} - {0, 1}
                                | ({1} if entry.min_k == 1 else set()))
                    ks = [k for k in ks if k >= entry.min_k]
                roots = [0, p - 1] if entry.takes_root and p > 1 else [0]
                for k in ks:
                    for root in roots:
                        # A schedule that fails to build or verify is
                        # this verb's verdict (exit 1), not a usage
                        # error (exit 2).
                        try:
                            verify(build_schedule(coll, alg, p, k=k, root=root))
                            count += 1
                        except ReproError as exc:
                            print(
                                f"FAIL {coll}/{alg} p={p} k={k} root={root}: "
                                f"{exc}",
                                file=sys.stderr,
                            )
                            return 1
    print(f"verified {count} schedules — all correct")
    return 0


def main_chaos(argv: Optional[List[str]] = None) -> int:
    """``repro-chaos``: fault-injection sweep over the algorithm suite."""
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Sweep seeded fault scenarios across every generalized "
        "algorithm on the threaded transport and the simulator, asserting "
        "each case either completes correctly or fails with a structured "
        "diagnosis.",
    )
    parser.add_argument("--p", type=int, default=8,
                        help="ranks per schedule (default 8)")
    parser.add_argument("--count", type=int, default=64,
                        help="elements per buffer (default 64)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for every scenario")
    parser.add_argument("--backend", default=None,
                        choices=["threaded", "sim"],
                        help="restrict to one backend (default: both)")
    parser.add_argument("--scenario", default=None,
                        help="restrict to one scenario by name")
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="per-receive timeout for the threaded "
                        "transport (seconds)")
    parser.add_argument("--recover", action="store_true",
                        help="heal unmaskable faults through "
                        "repro.recovery (detect, shrink/substitute, "
                        "rebuild, rerun) instead of just classifying "
                        "them")
    parser.add_argument("--recover-mode", default=None,
                        choices=["abort", "shrink", "spare"],
                        help="recovery policy mode (implies --recover; "
                        "default with --recover: spare substitution "
                        "with p spares)")
    parser.add_argument("--allow-partial", action="store_true",
                        help="exit 0 even when cases end in structured "
                        "faults (without this, a sweep with unhealed "
                        "partial failures exits 1)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print every case, not just the summary")
    return _run(_chaos, parser.parse_args(argv),
                "interrupted mid-sweep: no cases summarized")


def _chaos(args: argparse.Namespace) -> int:
    from .faults.chaos import (
        default_recovery_policy,
        default_scenarios,
        run_chaos,
        summarize,
    )

    recover = None
    if args.recover or args.recover_mode:
        if args.recover_mode in (None, "spare"):
            recover = default_recovery_policy(args.p)
        else:
            from .recovery import RecoveryPolicy

            recover = RecoveryPolicy(mode=args.recover_mode)
    scenarios = default_scenarios(args.seed, args.p)
    if args.scenario is not None:
        scenarios = tuple(s for s in scenarios if s.name == args.scenario)
        if not scenarios:
            known = ", ".join(s.name for s in default_scenarios(args.seed,
                                                                args.p))
            raise ReproError(f"unknown scenario {args.scenario!r} "
                             f"(known: {known})")
    backends = [args.backend] if args.backend else ["threaded", "sim"]
    results = run_chaos(
        scenarios,
        p=args.p,
        count=args.count,
        seed=args.seed,
        backends=backends,
        timeout=args.timeout,
        recover=recover,
    )
    if args.verbose:
        for r in results:
            print(r.describe())
        print()
    print(summarize(results))
    violations = [r for r in results if not r.ok]
    if violations:
        return 1
    partial = [r for r in results if r.outcome == "fault"]
    if partial and not args.allow_partial:
        # A structured fault honors the fail-loud contract, but the
        # collective still did not complete — that must not look like
        # success to CI.  Healing them (or accepting them) is explicit.
        print(
            f"{len(partial)} case(s) ended in unhealed partial failures; "
            "re-run with --recover to heal them or --allow-partial to "
            "accept structured faults as success",
            file=sys.stderr,
        )
        return 1
    return 0


def main_recover(argv: Optional[List[str]] = None) -> int:
    """``repro-recover``: self-healing demo and recovery sweep."""
    from .names import COLLECTIVES

    parser = argparse.ArgumentParser(
        prog="repro-recover",
        description="Heal a seeded mid-schedule rank crash through "
        "detect -> shrink/substitute -> rebuild -> rerun, or (--sweep) "
        "chart time-to-recovery vs radix across the algorithm suite "
        "and write a JSON report.",
    )
    parser.add_argument("collective", nargs="?", default="allreduce",
                        choices=COLLECTIVES)
    parser.add_argument("algorithm", nargs="?", default="knomial")
    parser.add_argument("--p", type=int, default=8,
                        help="ranks (default 8)")
    parser.add_argument("--k", type=int, default=None,
                        help="generalization radix")
    parser.add_argument("--count", type=int, default=64,
                        help="elements per buffer for the threaded demo "
                        "(default 64)")
    parser.add_argument("--nbytes", type=int, default=65536,
                        help="message size for the simulated paths "
                        "(default 65536)")
    parser.add_argument("--mode", default="shrink",
                        choices=["abort", "shrink", "spare"],
                        help="recovery policy mode (default shrink)")
    parser.add_argument("--crash-rank", type=int, default=1,
                        help="rank that dies (default 1)")
    parser.add_argument("--crash-step", type=int, default=1,
                        help="sends completed before dying (default 1)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", default="both",
                        choices=["threaded", "sim", "both"],
                        help="demo backend(s) (default both)")
    _machine_flags(parser, "reference")
    parser.add_argument("--sweep", action="store_true",
                        help="sweep every generalized algorithm across "
                        "the radix grid instead of the single demo")
    _jobs_flag(parser, "the sweep", "records are")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="write the sweep's JSON report here")
    args = parser.parse_args(argv)
    # A truncated recovery report would understate time-to-recovery
    # coverage; an interrupted demo has no verdict to print.
    return _run(_recover, args, "interrupted: no report written"
                if args.sweep else "interrupted")


def _recover(args: argparse.Namespace) -> int:
    from .errors import RecoveryError
    from .faults.plan import Crash, FaultPlan
    from .recovery import RecoveryPolicy

    spares = args.p if args.mode == "spare" else 0
    policy = RecoveryPolicy(mode=args.mode, spares=spares)
    machine = _machine(args)

    if args.sweep:
        from .bench.recovery import (
            run_recovery_sweep,
            summarize_recovery,
            unrecovered,
            write_recovery_report,
        )

        records = run_recovery_sweep(
            machine,
            nbytes=args.nbytes,
            crash_rank=args.crash_rank,
            crash_step=args.crash_step,
            seed=args.seed,
            recovery=policy,
            jobs=args.jobs,
        )
        print(summarize_recovery(records))
        if args.output:
            write_recovery_report(records, args.output, machine=machine,
                                  policy=policy, seed=args.seed)
            print(f"wrote {args.output}")
        return 1 if unrecovered(records) else 0

    from .faults.plan import RetryPolicy

    # Fast retry budget so the threaded demo detects the dead rank in
    # milliseconds instead of the default multi-second RTO ladder.
    plan = FaultPlan(
        seed=args.seed,
        crashes=(Crash(rank=args.crash_rank, step=args.crash_step),),
        retry=RetryPolicy(max_retries=4, rto=0.02, backoff=2.0,
                          max_rto=0.1),
    )
    status = 0
    if args.backend in ("sim", "both"):
        from .recovery import simulate_with_recovery

        res = simulate_with_recovery(
            args.collective, args.algorithm, machine, args.nbytes,
            recovery=policy, k=args.k, faults=plan,
        )
        print(f"sim: {res.report.describe()}")
        if res.recovered:
            print(f"sim: total {res.time_us:.1f} us, time-to-recovery "
                  f"{res.time_to_recovery_us:.1f} us, post-recovery "
                  f"{res.post_recovery_us:.1f} us")
        else:
            status = 1
    if args.backend in ("threaded", "both"):
        from .recovery import execute_with_recovery

        # An unrecovered threaded run is this demo's verdict (exit 1),
        # not an error.
        try:
            run = execute_with_recovery(
                args.collective, args.algorithm, p=args.p,
                count=args.count, recovery=policy, backend="threaded",
                k=args.k, faults=plan,
            )
        except RecoveryError as exc:
            print(f"threaded: unrecovered: {exc}", file=sys.stderr)
            status = 1
        else:
            print(f"threaded: {run.report.describe()}")
            print(f"threaded: survivors host slots {list(run.hosts)}; "
                  "results verified bit-exact over the survivor group")
    return status


def main_bench_perf(argv: Optional[List[str]] = None) -> int:
    """``repro-bench-perf``: the perf gates (DESIGN.md §18)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench-perf",
        description="Run the perf gates: timing ratios and wall-clock "
        "budgets, each judged inside this run against a fixed bound "
        "(no baseline, no options). Exits 0 when every gate holds, 1 "
        "otherwise. Perf claims are perfbench A/B tables, not this.",
    )
    # Rows from the measures that did finish would read as a verdict on
    # the ones that did not: Ctrl-C prints none.
    return _run(_bench_perf, parser.parse_args(argv),
                "interrupted: no verdict")


def _bench_perf(args: argparse.Namespace) -> int:
    from .bench.perf import format_report, run_gates

    report = run_gates()
    print(format_report(report))
    failed = [row for row in report if not row["ok"]]
    if failed:
        print("PERF GATE FAILED:\n" + format_report(failed), file=sys.stderr)
    print(f"perf gates: {len(report) - len(failed)} of {len(report)} hold")
    return 1 if failed else 0


def main_trace(argv: Optional[List[str]] = None) -> int:
    """``repro-trace``: one collective under full observability."""
    from .names import COLLECTIVES

    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Trace one collective point end to end: a size sweep "
        "around the requested point (exercising the schedule cache and "
        "the simulator) plus a per-message timeline, merged into one "
        "Perfetto/Chrome trace and a metrics snapshot.",
    )
    parser.add_argument("collective", choices=COLLECTIVES)
    parser.add_argument("algorithm")
    parser.add_argument("--p", type=int, default=64,
                        help="total ranks (default 64)")
    parser.add_argument("--k", type=int, default=None,
                        help="generalization radix")
    parser.add_argument("--root", type=int, default=0)
    parser.add_argument("--nbytes", type=int, default=65536,
                        help="message size at the traced point "
                        "(default 65536)")
    _machine_flags(parser, "frontier")
    _jobs_flag(parser, "the sweep")
    parser.add_argument("-o", "--output", default="trace.json",
                        metavar="PATH",
                        help="Perfetto trace path (default trace.json)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="metrics snapshot path (default: "
                        "<output stem>-metrics.json; Prometheus text "
                        "beside it as .prom)")
    return _run(_trace, parser.parse_args(argv),
                "interrupted: no trace written")


def _trace(args: argparse.Namespace) -> int:
    from .api import build, simulate
    from .bench.sweep import SweepPoint, run_sweep, sweep_stats
    from .obs import OBS

    machine = _machine(args)
    metrics_out = args.metrics_out or str(
        Path(args.output).with_name(Path(args.output).stem + "-metrics.json")
    )
    with _metrics_out(metrics_out):
        with OBS.span(
            "trace",
            collective=args.collective,
            algorithm=args.algorithm,
            p=args.p,
            nbytes=args.nbytes,
        ):
            # A small size sweep around the requested point: repeated
            # schedule params across sizes exercise the schedule cache
            # (1 miss + hits) and the simulator's event engine.
            sizes = sorted(
                {max(args.nbytes // 4, 1), args.nbytes, args.nbytes * 4}
            )
            points = [
                SweepPoint(args.collective, args.algorithm, n,
                           k=args.k, root=args.root)
                for n in sizes
            ]
            results = run_sweep(points, machine, jobs=args.jobs)
            # The traced point itself, with the per-message timeline that
            # becomes the simulated track in the Perfetto export.
            sched = build(args.collective, args.algorithm,
                          p=args.p, k=args.k, root=args.root)
            res = simulate(sched, machine, nbytes=args.nbytes,
                           timeline=True)
        trace_path = OBS.write_trace(
            args.output,
            metadata={
                "tool": "repro-trace",
                "machine": machine.name,
                "point": f"{args.collective}/{args.algorithm} "
                         f"p={args.p} k={args.k} nbytes={args.nbytes}",
            },
        )

    stats = sweep_stats(results)
    print(f"{args.collective}/{args.algorithm} p={args.p} k={args.k} "
          f"nbytes={args.nbytes} on {machine.name}: "
          f"{res.time_us:.1f} us, {res.messages} messages")
    print(f"sweep: {stats.points} points, "
          f"build hit rate {stats.build_hit_rate:.0%}")
    print(f"wrote {trace_path} "
          f"(open at https://ui.perfetto.dev or chrome://tracing)")
    return 1 if stats.errors else 0


def main_check(argv: Optional[List[str]] = None) -> int:
    """``repro-check``: static schedule analysis (no simulator)."""
    from .names import COLLECTIVES, ENGINES

    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Statically analyze collective schedules: deadlock "
        "detection under eager and rendezvous send semantics, intra-step "
        "buffer hazards, symbolic dataflow lint, and model-consistency "
        "checks against repro.models — without running the simulator.",
    )
    parser.add_argument("collective", nargs="?", default=None,
                        choices=COLLECTIVES)
    parser.add_argument("algorithm", nargs="?", default=None)
    parser.add_argument("--p", type=int, default=8,
                        help="ranks for the single-point check (default 8)")
    parser.add_argument("--k", type=int, default=None,
                        help="generalization radix")
    parser.add_argument("--root", type=int, default=0,
                        help="root rank for rooted collectives (default 0)")
    parser.add_argument("--nbytes", type=int, default=1 << 20,
                        help="payload size the analyses price blocks at "
                        "(default 1 MiB)")
    parser.add_argument("--eager-threshold", type=int, default=None,
                        metavar="BYTES",
                        help="additionally analyze the mixed send regime: "
                        "payloads <= BYTES buffer eagerly, larger ones "
                        "rendezvous (the eager and rendezvous extremes "
                        "always run)")
    parser.add_argument("--schedule", default=None, metavar="PATH",
                        help="check a serialized schedule JSON (as written "
                        "by repro-validate --dump) instead of building "
                        "from the registry")
    parser.add_argument("--all", action="store_true",
                        help="sweep every registry (collective, algorithm) "
                        "pair over the acceptance grid "
                        "(p in {2..17, 32, 64}, k in {2..8}) — the CI gate")
    parser.add_argument("--engine", default="materialized", choices=ENGINES,
                        help="with --all: 'collapsed' additionally runs "
                        "the rank-equivalence-class analysis per point "
                        "(still static — the checker never simulates) and "
                        "reports class counts; 'materialized'/'auto' "
                        "analyze schedules only")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on warnings, not just errors")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable JSON report "
                        "instead of the human summary")
    _jobs_flag(parser, "--all", "records are")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="also write the JSON report to a file")
    # A partial grid would pass CI on configurations it never analyzed.
    return _run(_check, parser.parse_args(argv),
                "interrupted: no report written")


def _check(args: argparse.Namespace) -> int:
    if args.all:
        from .bench.checksweep import (
            grid_points,
            run_check_sweep,
            summarize_check_sweep,
        )

        points = grid_points(
            nbytes=args.nbytes,
            eager_threshold=args.eager_threshold,
            collective=args.collective,
            algorithm=args.algorithm,
            engine=args.engine,
        )
        if not points:
            raise ReproError("no registry entries match the filter")
        records = run_check_sweep(points, jobs=args.jobs)
        summary = summarize_check_sweep(records)
        doc = {
            "summary": summary,
            "records": [r.to_dict() for r in records],
        }
        lines = [
            f"checked {summary['points']} configurations: "
            f"{summary['ok']} ok, {summary['failing']} failing, "
            f"{summary['warnings']} warning(s)"
        ]
        if "classes" in summary:
            cls = summary["classes"]
            lines.append(
                f"class analysis: {cls['total_ranks']} ranks collapse "
                f"to {cls['total_classes']} classes across "
                f"{cls['points']} configurations"
            )
        for record in records:
            if record.ok and not (args.strict and record.warnings):
                continue
            where = f"{record.collective}/{record.algorithm} " \
                    f"p={record.p} k={record.k}"
            if record.error:
                lines.append(f"  FAIL {where}: {record.error}")
            for finding in record.findings:
                lines.append(f"  FAIL {where}: {finding['message']}")
        text = "\n".join(lines)
        ok = not (summary["failing"]
                  + (summary["warnings"] if args.strict else 0))
    else:
        from .check import run_checks
        from .core.registry import build_schedule

        if not (args.schedule or (args.collective and args.algorithm)):
            raise ReproError("name a (collective, algorithm) pair, or use "
                             "--schedule PATH / --all")
        # A schedule file is outside input: reading or parsing it can
        # fail with errors that are not ReproErrors; they exit 2 too.
        try:
            if args.schedule:
                from .core.serialize import load_schedule

                sched = load_schedule(args.schedule)
            else:
                sched = build_schedule(
                    args.collective, args.algorithm, args.p,
                    k=args.k, root=args.root,
                )
            report = run_checks(
                sched,
                nbytes=args.nbytes,
                eager_threshold=args.eager_threshold,
            )
        except (OSError, ValueError) as exc:
            raise ReproError(str(exc)) from exc
        doc, text = report.to_dict(), report.describe()
        ok = report.strict_ok if args.strict else report.ok
    print(json.dumps(doc, indent=2) if args.json else text)
    if args.output:
        _write_report(args.output, doc)
    return 0 if ok else 1


def main_sweep(argv: Optional[List[str]] = None) -> int:
    """``repro-sweep``: crash-safe, resumable radix sweep."""
    from .names import COLLECTIVES

    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Simulate an (algorithm x k x size) grid on a "
        "simulated machine and write deterministic results JSON, "
        "journaling every completed point so an interrupted run can "
        "resume where it died (--resume) with bit-identical results.",
    )
    _machine_flags(parser, "frontier", nodes=16)
    parser.add_argument("--collective", default="allreduce",
                        choices=COLLECTIVES)
    parser.add_argument("--algorithm", default=None,
                        help="restrict to one algorithm (default: every "
                        "algorithm registered for the collective)")
    _size_flags(parser, max_bytes=1 << 20)
    _jobs_flag(parser, "the grid", "results are")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="append every completed point to this "
                        "crash-safe JSONL journal as it finishes")
    parser.add_argument("--resume", action="store_true",
                        help="replay the journal and simulate only "
                        "missing or failed points (requires --journal; "
                        "refuses a journal from a different sweep "
                        "configuration)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="disk-backed schedule store shared across "
                        "runs and workers (created if missing)")
    parser.add_argument("--retries", type=int, default=2,
                        help="re-dispatch attempts for chunks whose "
                        "worker process dies (default 2)")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-chunk stall deadline; a hung chunk is "
                        "killed and retried, then quarantined")
    parser.add_argument("--isolate", action="store_true",
                        help="force real worker processes even on a "
                        "single-core host (crash isolation needs a "
                        "process boundary)")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="write the results JSON here (default: "
                        "stdout summary only)")
    _metrics_flag(parser)
    args = parser.parse_args(argv)
    # The journal already holds every completed point (each record is
    # flushed before the next chunk lands), so an interrupted run
    # resumes exactly where it died: same command + --resume.
    interrupted = "interrupted"
    if args.journal:
        interrupted += (f"\njournal {args.journal} holds the completed "
                        "points; re-run with --resume to continue")
    return _run(_sweep, args, interrupted)


def _sweep(args: argparse.Namespace) -> int:
    from .bench.sweep import (
        SweepPoint,
        run_sweep,
        sweep_fingerprint,
        sweep_stats,
    )
    from .bench.osu import default_sizes
    from .core.registry import algorithms_for, info
    from .selection.tuner import radix_grid

    if args.resume and not args.journal:
        raise ReproError("--resume requires --journal")
    machine = _machine(args)
    algorithms = (
        [args.algorithm] if args.algorithm
        else algorithms_for(args.collective)
    )
    points: List[SweepPoint] = []
    for alg in algorithms:
        entry = info(args.collective, alg)
        ks = radix_grid(machine.nranks) if entry.takes_k else [None]
        for k in ks:
            for nbytes in default_sizes(args.min_bytes, args.max_bytes):
                points.append(
                    SweepPoint(args.collective, alg, nbytes, k=k)
                )

    with _metrics_out(args.metrics_out):
        results = run_sweep(
            points,
            machine,
            jobs=args.jobs,
            journal=args.journal,
            resume=args.resume,
            store=args.store,
            retries=args.retries,
            deadline=args.deadline,
            isolate=args.isolate,
        )

    stats = sweep_stats(results)
    print(f"{args.collective} on {machine.name}: {stats.points} points, "
          f"{stats.errors} error(s), "
          f"build hit rate {stats.build_hit_rate:.0%}")
    if args.output:
        # Deterministic artifact: (point, time, error) only — execution
        # metadata like cache hits varies across runs by design.
        doc = {
            "sweep": sweep_fingerprint(points, machine),
            "machine": machine.name,
            "collective": args.collective,
            "points": [
                {
                    "algorithm": r.point.algorithm,
                    "k": r.point.k,
                    "root": r.point.root,
                    "nbytes": r.point.nbytes,
                    "time": r.time,
                    "error": r.error,
                }
                for r in results
            ],
        }
        _write_report(args.output, doc, sort_keys=True)
    return 1 if stats.errors else 0


def main_adapt(argv: Optional[List[str]] = None) -> int:
    """``repro-adapt``: online adaptive selection under drift."""
    from .adapt.scenarios import SCENARIOS
    from .names import COLLECTIVES

    parser = argparse.ArgumentParser(
        prog="repro-adapt",
        description="Drive the online adaptive selection loop "
        "(repro.adapt) through a named drift scenario on a simulated "
        "machine: a UCB bandit over (algorithm, k) arms, warm-started "
        "from tuner priors and guarded by hysteresis and switch cost, "
        "re-selects as links flap, stragglers migrate, or neighbor jobs "
        "contend.  Reports cumulative regret and time-to-adapt vs the "
        "per-round oracle; the full trail is deterministic and "
        "bit-identical at any --jobs.",
    )
    parser.add_argument("--collective", default="allreduce",
                        choices=COLLECTIVES)
    _machine_flags(parser, "frontier", nodes=16)
    parser.add_argument("--nbytes", type=int, default=65536,
                        help="message size the loop re-selects at "
                        "(default 65536)")
    parser.add_argument("--scenario", default="flap",
                        choices=sorted(SCENARIOS),
                        help="drift scenario (default flap: all links at "
                        "one rank degrade, then heal)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override the scenario's round count")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the scenario and the bandit "
                        "tie-breaks (default 0)")
    _jobs_flag(parser, "the underlying sweeps", "the trail is")
    parser.add_argument("--check-jobs", type=int, default=None,
                        metavar="N",
                        help="re-run the whole loop at this job count "
                        "and verify the trail is bit-identical")
    parser.add_argument("--hysteresis", type=float, default=None,
                        help="relative margin a challenger arm must win "
                        "by before the loop switches (default 0.05)")
    parser.add_argument("--switch-cost", type=float, default=None,
                        metavar="SECONDS",
                        help="time charged on the first round after an "
                        "arm switch (default 0)")
    parser.add_argument("--cooldown", type=int, default=None,
                        help="rounds the loop must hold an arm after "
                        "switching (default 2)")
    parser.add_argument("--patience", type=int, default=None,
                        help="consecutive bad rounds before the ladder "
                        "escalates to shrink/abort (default 4)")
    parser.add_argument("--max-candidates", type=int, default=None,
                        help="arm universe size: the healthy sweep's "
                        "best N (algorithm, k) pairs (default 8)")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="ignore degraded-link telemetry; adapt on "
                        "round timings alone")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="write the full trail JSON here "
                        "(e.g. adapt_report.json)")
    # A truncated trail would misstate regret and time-to-adapt.
    return _run(_adapt, parser.parse_args(argv),
                "interrupted: no report written")


def _adapt(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .adapt.selector import DEFAULT_POLICY
    from .bench.adapt import run_adapt_bench

    overrides = {
        name: getattr(args, name)
        for name in ("hysteresis", "switch_cost", "cooldown", "patience",
                     "max_candidates")
        if getattr(args, name) is not None
    }
    if args.no_telemetry:
        overrides["telemetry"] = False
    policy = (
        replace(DEFAULT_POLICY, **overrides) if overrides
        else DEFAULT_POLICY
    )
    doc = run_adapt_bench(
        _machine(args),
        collective=args.collective,
        nbytes=args.nbytes,
        scenario=args.scenario,
        rounds=args.rounds,
        policy=policy,
        jobs=args.jobs,
        check_jobs=args.check_jobs,
        seed=args.seed,
    )

    static, final = doc["static"], doc["final"]
    print(f"{args.collective} n={doc['nbytes']} on {doc['machine']}: "
          f"scenario {doc['scenario']}, {len(doc['rounds'])} round(s)")
    print(f"static winner {static['algorithm']}/k={static['k']}, "
          f"final arm {final['algorithm']}/k={final['k']}, "
          f"{doc['switches']} switch(es)")
    ratio = doc["regret_ratio"]
    print(f"regret {doc['regret'] * 1e6:.2f} us vs static "
          f"{doc['static_regret'] * 1e6:.2f} us"
          + (f" ({ratio:.2f}x)" if ratio is not None else ""))
    for change, tta in sorted(doc["time_to_adapt"].items(),
                              key=lambda item: int(item[0])):
        print(f"change at round {change}: "
              + ("never caught the oracle" if tta is None
                 else f"adapted in {tta} round(s)"))
    if args.check_jobs is not None and args.check_jobs != args.jobs:
        print(f"trail at --jobs {args.jobs} vs {args.check_jobs}: "
              + ("bit-identical" if doc["jobs_invariant"] else "DIVERGED"))
    if doc["aborted"]:
        print("ladder ABORTED: fabric too degraded for any candidate",
              file=sys.stderr)
    if args.output:
        _write_report(args.output, doc, sort_keys=True)
    if doc["aborted"]:
        return 1
    return 0 if doc["jobs_invariant"] else 1


def main_serve(argv: Optional[List[str]] = None) -> int:
    """``repro-serve``: run the schedule-tuning HTTP service."""
    from .names import COLLECTIVES

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Boot the schedule-tuning service (repro.server): "
        "an asyncio HTTP daemon serving tuned selections (/select), "
        "content-addressed compiled schedules (/schedule), coalesced "
        "sweeps (POST /tune), Prometheus metrics (/metrics), and the "
        "exportable MPICH-style selection-config artifact (/config).  "
        "The boot sweep tunes every collective over the size grid "
        "before the socket binds; warm-start it from a committed "
        "artifact with --grid.",
        epilog="SIGTERM stops the service cleanly (exit 0); Ctrl-C "
        "exits 130 like every other verb.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port; 0 (default) picks an "
                        "ephemeral one — the chosen URL is printed as "
                        "'serving on http://...' once ready")
    _machine_flags(parser, "reference", nodes=8)
    parser.add_argument("--collectives", nargs="+", default=None,
                        choices=COLLECTIVES, metavar="COLLECTIVE",
                        help="collectives the boot sweep tunes "
                        "(default: the paper's four — bcast, reduce, "
                        "allgather, allreduce)")
    _size_flags(parser, max_bytes=1 << 18)
    parser.add_argument("--grid", default=None, metavar="PATH",
                        help="warm-start the boot sweep from a "
                        "selection-config document (repro-tune -o "
                        "output, a saved /config, or SelectionConfig."
                        "save); covered points replay recorded timings "
                        "instead of simulating")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="disk store backing schedules and compiled "
                        "artifacts (repro.store); /schedule survives "
                        "restarts and the fingerprint index is rebuilt "
                        "from it at boot")
    _jobs_flag(parser, "the service's sweeps", "selections are")
    return _run(_serve, parser.parse_args(argv),
                "interrupted during boot sweep")


def _serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .obs import OBS
    from .selection.tuner import DEFAULT_COLLECTIVES
    from .server import TuningService

    # The service's own request counters record unconditionally, but
    # enabling the scope also surfaces cache/store/sweep instrumentation
    # in /metrics — a daemon should be observable by default.
    OBS.reset()
    OBS.enable()
    service = TuningService(
        _machine(args),
        _tuning_sizes(args),
        collectives=args.collectives or DEFAULT_COLLECTIVES,
        store=args.store,
        grid=args.grid,
        jobs=args.jobs,
    )

    async def run() -> None:
        await service.start(args.host, args.port)
        print(f"serving on {service.url}", flush=True)
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, stop.set
        )
        await stop.wait()
        await service.stop()

    def serve(_args: argparse.Namespace) -> int:
        asyncio.run(run())
        print("SIGTERM: tuning service stopped cleanly", file=sys.stderr)
        return 0

    # Booted: Ctrl-C now stops a live service, which says so.
    return _run(serve, args, "interrupted: tuning service stopped")


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_bench())
