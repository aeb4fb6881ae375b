"""The measurement protocol every perfbench workload shares.

A workload is a fixed, seeded **cycle** of short **units**.  A run
repeats the cycle until its time budget is spent; every repetition
starts from fresh-process-equivalent state, so unit *u* does
bit-identical work each time.  The timing estimator is the **sum of
per-unit minima**::

    cycle_ms = sum over units u of (min over repetitions r of t[u, r])

Each unit's samples are spread over the whole run, so at least one lands
in a quiet phase of a contended host; the sum of those quiet samples is
the undisturbed cost of the cycle.  (README.md has the measurements that
chose this estimator over the median and the minimum whole cycle.)

Nothing here imports :mod:`repro` at module level: the estimator and the
run loop are pure, and `perfbench/tests` exercises them on synthetic
workloads.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from .spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

#: Environment every run is pinned to (``run.py`` re-executes itself
#: under it): hash randomisation off so dict/set iteration — and with it
#: allocation order — repeats, and every BLAS pool held to one thread so
#: the benchmark never competes with itself for the box's two cores.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Iterations of the calibration kernel — a fixed slab of pure-Python
#: arithmetic, so its wall time moves only with what else the host is
#: doing.
CALIBRATION_ITERS = 250_000

#: What the kernel takes on the reference box when nothing disturbs it.
#: Every duration is reported on a *calibrated clock*: wall seconds ×
#: (this ÷ the run's own 10th-percentile kernel time), i.e. seconds on a
#: box running at the reference speed.  The host this benchmark was
#: built on drops to 0.65–0.75× speed for minutes at a time, every
#: sample of a run alike (README.md has the measurements); the kernel,
#: sampled all through the run, slows with the program and takes the
#: swing out of the ratio.
CALIBRATION_NOMINAL_S = 0.0142

#: A run whose calibration p50/p10 exceeds this is flagged ``noisy``.
NOISY_RATIO = 1.5

#: Calibration samples per repetition (spread between units).
_CAL_PER_REP = 4

#: Fresh-interpreter launches aimed at per untraced run, spread evenly
#: over its repetitions.
_SETUP_LAUNCHES = 10


def sum_of_minima(samples: Dict[str, Sequence[float]]) -> float:
    """``Σ_u min_r t[u, r]`` — the undisturbed cost of one cycle."""
    return sum(min(ts) for ts in samples.values())


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0–1) by nearest rank; no interpolation."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def calibration_kernel() -> float:
    """Wall seconds for a fixed slab of interpreter work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc += i * i
    return time.perf_counter() - t0


@dataclass
class Unit:
    """One timed step of a cycle.

    ``run(ctx)`` is the whole unit as a user would call it; ``staged``,
    when given, performs the *same* work stage by stage through each
    layer's public functions under ``tracer`` spans (the traced run's
    layer attribution).  ``after`` runs outside the timed window — the
    place for output checks too dear to time.  Each returns ``None`` on
    success or a short failure reason; an exception is a failure too.
    ``layer`` labels the unit's own span in a traced repetition: the
    layer it calls into, or ``"unit"`` when ``staged`` opens a span per
    layer inside it.
    """

    name: str
    layer: str
    run: Callable[[dict], Optional[str]]
    staged: Optional[Callable[[dict, Tracer], Optional[str]]] = None
    after: Optional[Callable[[dict], Optional[str]]] = None


class Workload:
    """Base class: a seeded cycle plus its correctness checks.

    Construction is cheap and deterministic in ``seed`` (it only lays
    out the cycle) — it is what a fresh user process pays before its
    first unit.  ``prepare`` does the expensive once-per-run work
    (reference results, store templates) and is never timed.
    """

    name = ""
    #: What ``work_per_s`` counts for this workload, and how much of it
    #: one cycle does (known after the first repetition at the latest).
    work_unit = ""
    work = 0.0
    units: List[Unit]

    def __init__(self, seed: int, quick: bool, state_dir: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.state_dir = state_dir
        self.units = []
        #: Exact counts of one staged cycle (see :meth:`pin_counts`).
        self.counts: Dict[str, float] = {}

    def prepare(self) -> None:
        """Untimed once-per-run work; raises if a setup check fails."""

    def begin_rep(self) -> dict:
        """Reset to fresh-process-equivalent state; the cycle's context."""
        reset_caches()
        return {}

    def check_rep(self, ctx: dict) -> List[str]:
        """Whole-cycle checks after the last unit; failure reasons."""
        return []

    def close_rep(self, ctx: dict) -> None:
        """Release what the cycle opened (always called)."""

    def probes(self, ctx: dict, tracer: Tracer) -> None:
        """Extra traced calls into layers the cycle reaches only
        indirectly (traced repetitions only, after the cycle)."""

    def pin_counts(self, counts: Dict[str, float]) -> None:
        """Keep one staged cycle's exact counts; they may never move
        from one repetition to the next."""
        if self.counts and self.counts != counts:
            raise AssertionError(
                f"{self.name} counts moved between repetitions: "
                f"{self.counts} -> {counts}"
            )
        self.counts = counts

    def layer_metrics(self, agg: "TraceAggregate") -> Dict[str, float]:
        """This workload's per-layer metrics from the traced run."""
        return {}


def reset_caches() -> None:
    """Empty every process-wide cache a new interpreter would lack."""
    from repro.bench.sweep import clear_sim_memo
    from repro.compile.cache import clear_class_cache, global_compiled_cache
    from repro.core.cache import global_schedule_cache

    clear_sim_memo()
    global_schedule_cache().clear()
    global_compiled_cache().clear()
    clear_class_cache()
    gc.collect()


def table_bytes(compiled) -> int:
    """Bytes of flat tables in one compiled artifact."""
    return sum(len(prog.table_bytes()) for prog in compiled.programs)


@dataclass
class RunResult:
    """Everything one run measured (``run.py`` turns it into metrics)."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    staged_samples: Dict[str, List[float]] = field(default_factory=dict)
    cycle_times: List[float] = field(default_factory=list)
    setup_times: List[float] = field(default_factory=list)
    calibration: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    reps: int = 0

    @property
    def cycle_s(self) -> float:
        """Σ of per-unit minima, on the calibrated clock."""
        return sum_of_minima(self.samples) * self.clock_scale

    @property
    def noise_ratio(self) -> float:
        return (statistics.median(self.calibration)
                / percentile(self.calibration, 0.10))

    @property
    def clock_scale(self) -> float:
        """Calibrated seconds per wall second (see CALIBRATION_NOMINAL_S)."""
        return CALIBRATION_NOMINAL_S / percentile(self.calibration, 0.10)


def _run_unit(unit: Unit, ctx: dict, tracer: Optional[Tracer],
              result: RunResult, rep: int) -> float:
    """Time one unit; record failures; return its wall seconds."""
    result.attempted += 1
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span(unit.name, unit.layer, unit=unit.name):
                if unit.staged is not None:
                    reason = unit.staged(ctx, tracer)
                else:
                    reason = unit.run(ctx)
        else:
            reason = unit.run(ctx)
    except Exception:  # noqa: BLE001 — a failed unit is a counted result
        reason = traceback.format_exc(limit=4)
    dt = time.perf_counter() - t0
    if reason is None and unit.after is not None:
        try:
            reason = unit.after(ctx)
        except Exception:  # noqa: BLE001 — a failed check fails the unit
            reason = traceback.format_exc(limit=4)
    if reason is not None:
        result.failures.append(f"rep {rep} {unit.name}: {reason}")
    return dt


def launch_setup_child(workload: str, seed: int, quick: bool,
                       state_dir: Path) -> float:
    """Wall seconds for one fresh interpreter to reach *first unit done*.

    The child imports :mod:`repro`, lays out the workload from the seed
    and runs the cycle's first unit — what a new user process pays.
    Launched sequentially, never beside a measured repetition.
    """
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--setup-child", "--workload", workload, "--seed", str(seed),
           "--state-dir", str(state_dir)]
    if quick:
        cmd.append("--quick")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            f"setup child for {workload} failed "
            f"(rc={proc.returncode}): {proc.stderr[-2000:]}"
        )
    return dt


def run_workload(
    wl: Workload,
    *,
    seconds: float,
    tracer: Optional[Tracer] = None,
    fixed_reps: Optional[int] = None,
    setup_launches: bool = True,
) -> RunResult:
    """Repeat ``wl``'s cycle for ``seconds`` (or ``fixed_reps`` times).

    Untraced (no ``tracer``): every repetition is a plain cycle; about
    ``_SETUP_LAUNCHES`` of them, evenly spread, are preceded by one
    fresh-interpreter launch.  Traced: repetitions alternate plain and
    staged cycles (no launches — ``setup_s`` is an end-to-end metric);
    the plain ones give the traced run its own untraced baseline for
    ``harness.trace_overhead_frac``.
    """
    result = RunResult()
    traced = tracer is not None
    t_run = time.perf_counter()
    names = [u.name for u in wl.units]
    if len(set(names)) != len(names):
        raise ValueError(f"{wl.name}: unit names must be unique")
    cal_every = max(1, len(wl.units) // _CAL_PER_REP)
    rep_costs: List[float] = []
    launch_every = 1
    rep = 0
    while True:
        if fixed_reps is not None:
            if rep >= fixed_reps:
                break
        elif rep >= 2 and (
            # Budget the next repetition at the dearer of the last two,
            # so a traced run's plain/staged pair both fit.
            time.perf_counter() - t_run + max(rep_costs[-2:]) > seconds
        ):
            break
        t_rep = time.perf_counter()
        if setup_launches and not traced and rep % launch_every == 0:
            result.setup_times.append(
                launch_setup_child(wl.name, wl.seed, wl.quick, wl.state_dir)
            )
            if rep == 1 and fixed_reps is None:
                # Two repetitions seen: spread the remaining launches
                # over the repetitions the budget will hold.
                expected = seconds / rep_costs[0]
                launch_every = max(1, round(expected / _SETUP_LAUNCHES))
        staged = traced and rep % 2 == 1
        ctx = wl.begin_rep()
        samples = result.staged_samples if staged else result.samples
        cycle = 0.0
        try:
            for i, unit in enumerate(wl.units):
                if i % cal_every == 0:
                    result.calibration.append(calibration_kernel())
                dt = _run_unit(unit, ctx, tracer if staged else None,
                               result, rep)
                samples.setdefault(unit.name, []).append(dt)
                cycle += dt
            for reason in wl.check_rep(ctx):
                result.failures.append(f"rep {rep} check: {reason}")
            if staged:
                wl.probes(ctx, tracer)
        finally:
            wl.close_rep(ctx)
        if not staged:
            result.cycle_times.append(cycle)
        if traced:
            tracer.next_rep()
        rep += 1
        rep_costs.append(time.perf_counter() - t_rep)
    result.reps = rep
    return result


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> Dict[str, object]:
    """What a reader needs to judge whether two results are comparable."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "git_commit": commit,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Trace aggregation: the same Σ-of-minima estimator, per span name
# ----------------------------------------------------------------------


class TraceAggregate:
    """Per-span-name minima of self time over the staged repetitions.

    A span's self time is its duration minus what its child spans cover;
    span names repeat across repetitions (same cycle, same order), so
    ``min`` over repetitions is each span's undisturbed cost and sums of
    those minima attribute the cycle to layers.
    """

    def __init__(self, tracer: Tracer,
                 plain_samples: Dict[str, Sequence[float]],
                 scale: float = 1.0) -> None:
        #: Calibrated seconds per wall second; applied to every time.
        self.scale = scale
        self.plain_min = {
            u: min(ts) * scale for u, ts in plain_samples.items()
        }
        child_time: Dict[int, float] = {}
        for _name, _layer, t0, t1, parent, _unit, _rep in tracer.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        self.layer_of: Dict[str, str] = {}
        self.is_leaf: Dict[str, bool] = {}
        self.in_cycle = {
            name for name, layer, _t0, _t1, _p, unit, _r in tracer.spans
            if unit is not None and not layer.endswith(".replay")
        }
        samples: Dict[str, List[float]] = {}
        for idx, (name, layer, t0, t1, _p, _u, _r) in enumerate(tracer.spans):
            samples.setdefault(name, []).append(
                (t1 - t0) - child_time.get(idx, 0.0)
            )
            self.layer_of[name] = layer
            self.is_leaf[name] = idx not in child_time
        self.min_self = {
            name: min(ts) * scale for name, ts in samples.items()
        }

    def layer_s(self, layer: str) -> float:
        """Σ of span minima recorded under ``layer``."""
        return sum(
            t for name, t in self.min_self.items()
            if self.layer_of[name] == layer
        )

    def plain_s(self, prefix: str) -> float:
        """Σ of plain-repetition unit minima whose name starts ``prefix``."""
        return sum(
            t for unit, t in self.plain_min.items() if unit.startswith(prefix)
        )

    def covered_s(self) -> float:
        """Σ of leaf-span minima inside units: the part of the cycle the
        trace attributes to a layer call (replays and probes excluded —
        they are not part of the plain cycle)."""
        return sum(
            t for name, t in self.min_self.items()
            if self.is_leaf[name] and name in self.in_cycle
        )
