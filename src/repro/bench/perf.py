"""Perf gates: timings judged inside the run that took them.

A perf *claim* ("this change made the tuner faster") is a perfbench A/B
table — repeated units, a calibrated clock, noise stated
(``perfbench/run.py``, ``perfbench/aa.py``; DESIGN.md §18).  A single
timing is not evidence: the paper's §VI-H shows run-to-run variance
large enough to change which (algorithm, k) wins.  So nothing here is
recorded, and nothing is compared across runs or hosts.

What lives here is the other thing, a *gate*: one rule, one table.

* The rule — a measurement stays only if it needs a clock and is judged
  inside the run that took it: a ratio of two timings taken back to
  back in one process (host speed cancels) or an absolute wall-clock
  budget, with a bound loose enough that a red row means a mechanism
  broke — a cache that stopped caching, a journal that fsyncs per
  record, a simulator that went linear in p — not that the host was
  busy.  Every clock-free condition (engine identity grids, served ≡
  direct selections, coalescing counts, adaptive convergence) is a
  tier-1 test; DESIGN.md §18 lists which.
* The table — :data:`GATES`, one row per judgement, evaluated by
  :func:`run_gates` and printed by :func:`format_report`.

A measure refuses to time a path that computes something different:
where it holds both sides of a comparison anyway it checks them bit for
bit and raises :class:`~repro.errors.ReproError`, which fails its rows.

``repro-bench-perf`` takes no options: it runs the table.
"""

from __future__ import annotations

import operator
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from ..core.cache import ScheduleCache, global_schedule_cache
from ..core.lazy import lookup
from ..core.registry import GENERALIZED_ALGORITHMS, info
from ..errors import ReproError
from ..obs import OBS
from ..recovery import simulate_with_recovery
from ..selection.tuner import radix_grid, tune
from ..simnet.machine import MachineSpec
from ..simnet.machines import get as machine_by_name, reference
from ..simnet.simulate import simulate
from ..store import open_schedule_store
from ..store.journal import JournalWriter
from .sweep import (
    SweepPoint,
    SweepPointResult,
    _result_record,
    clear_sim_memo,
    run_sweep,
    sweep_errors,
)

__all__ = ["GATES", "run_gates", "format_report"]


class _Gate(NamedTuple):
    """One judgement: ``facts[measure][fact] <op> bound``, and why."""

    measure: str
    fact: str
    op: str
    bound: float
    why: str

    @property
    def name(self) -> str:
        return f"{self.measure}.{self.fact}"


_OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt}

#: Every pass/fail decision ``repro-bench-perf`` makes, apart from the
#: measures' inline bit-identity raises.  ``why`` is the reason for the
#: bound; DESIGN.md §18 adds what a red row means.
GATES = (
    _Gate("sweep", "cache_speedup", ">=", 1.0,
          "cold (reuse=False) / cached wall clock on the Fig. 8+9 grid: "
          "the schedule cache and simulation memo must never make a "
          "sweep slower than rebuilding and re-simulating every point"),
    _Gate("recovery", "overhead", "<=", 2.0,
          "self-healing is pay-for-what-you-break: wrapping a fault-free "
          "simulation stays a small multiple of the plain call"),
    _Gate("obs", "overhead", "<=", 2.0,
          "spans + metrics on every point may cost, but never double "
          "the sweep"),
    _Gate("durability", "overhead", "<=", 1.05,
          "journal + disk store may tax the cached sweep 5% in steady "
          "state, or they get turned off (component-derived, so stable "
          "enough to resolve 5%)"),
    _Gate("durability", "end_to_end", "<=", 1.25,
          "paired whole-sweep ratio: wide enough for host jitter, tight "
          "enough to catch an fsync per record"),
    _Gate("durability", "warm_speedup", ">", 1.0,
          "a populated store must serve schedules faster than the "
          "builder it bypasses, or it is dead weight"),
    _Gate("scale", "sweep_wall_s", "<=", 120.0,
          "the p=4096 acceptance grid must fit a CI step (measured "
          "11-30 s)"),
    _Gate("scale", "sublinear_ratio", "<=", 256.0,
          "wall clock over a 1024x rank span (p=2^10..2^20): the "
          "collapsed engine's per-event op is a NumPy vector over class "
          "members, so ~100x measured; per-message cost would read 1024x"),
    _Gate("serve", "warm_speedup", ">=", 2.0,
          "a tune replaying a selection config's recorded timings must "
          "make boot nearly free (measured 130-360x)"),
)

# The sweep-shaped measures (sweep, obs, durability) and recovery share
# one machine and one size grid, small enough for a CI step.
_MACHINE = "frontier-16x1"
_SIZES = [1 << i for i in range(6, 18, 4)]

# The serve measure's grid is deliberately small — it times a prior
# replay against a sweep, not the sweep itself.
_SERVE_P = 8
_SERVE_SIZES = [1 << 10, 1 << 12, 1 << 14, 1 << 16]
_SERVE_COLLECTIVES = ("allreduce",)

# The scale measure: the exascale regime the class-collapsed engine
# exists for.  The p=4096 sweep must finish inside its budget; the
# sublinear probe rides the lazy generator schedules up to p=2^20 where
# per-rank materialization is unthinkable.
_SCALE_P = 4096
_SCALE_RADICES = (2, 8)
_SCALE_NBYTES = 1 << 16
_SCALE_SUBLINEAR_PS = (1 << 10, 1 << 14, 1 << 17, 1 << 20)
_SCALE_LAZY_FAMILIES = (
    ("allgather", "ring"),
    ("reduce_scatter", "ring"),
    ("allreduce", "ring"),
    ("allreduce", "recursive_doubling"),
)

#: (collective, algorithm) pairs whose *materialized* footprint at
#: p=_SCALE_P is unaffordable for the serial DES, with the measured
#: reason — the grid never narrows silently.  The allgather collectives
#: stay covered at scale through the lazy ring generator points the
#: sweep adds instead.
_SCALE_EXCLUSIONS = {
    ("bcast", "kring"):
        "builder materializes O(p^2/k) ops at p=4096 (~200 s to build "
        "at k=64); no lazy generator family covers k-ring yet",
    ("allgather", "kring"):
        "builder materializes O(p^2/k) ops at p=4096 (~200 s to build "
        "at k=64); no lazy generator family covers k-ring yet",
    ("allreduce", "kring"):
        "builder materializes O(p^2/k) ops at p=4096 (~200 s to build "
        "at k=64); no lazy generator family covers k-ring yet",
    ("allgather", "knomial"):
        "allgather materializes Theta(p^2) block transfers (16.8M at "
        "p=4096, ~35 s/point serial); covered at scale by the lazy "
        "allgather/ring generator point",
    ("allgather", "recursive_multiplying"):
        "allgather materializes Theta(p^2) block transfers (16.8M at "
        "p=4096, ~100 s/point serial); covered at scale by the lazy "
        "allgather/ring generator point",
    ("bcast", "recursive_multiplying"):
        "rotation phase materializes Theta(p^2) block transfers (16.8M "
        "at p=4096, ~100 s/point serial)",
}
#: Radix ceiling for recursive_multiplying in the scale sweep: at k=64
#: every rank posts 63 concurrent sends per step (516k messages total),
#: which costs the serial DES over a minute per point.
_SCALE_RM_MAX_K = 8


def _best_of(
    fn: Callable[[], object], repeats: int, min_wall_s: float = 0.0
) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls (noise floor),
    and over as many more as it takes to accumulate ``min_wall_s``."""
    best = float("inf")
    total = 0.0
    calls = 0
    while calls < repeats or total < min_wall_s:
        t0 = time.perf_counter()
        fn()
        took = time.perf_counter() - t0
        best = min(best, took)
        total += took
        calls += 1
    return best


def _clear_caches() -> None:
    clear_sim_memo()
    global_schedule_cache().clear()


def _timed_sweep(
    points: Sequence[SweepPoint], machine: MachineSpec, **kwargs
) -> Tuple[List[SweepPointResult], float]:
    """One ``run_sweep`` from cold in-process caches, and its seconds."""
    _clear_caches()
    t0 = time.perf_counter()
    results = run_sweep(points, machine, **kwargs)
    return results, time.perf_counter() - t0


def _sweep_workload() -> Tuple[MachineSpec, List[SweepPoint]]:
    """The gates' sweep workload, mirroring the paper's experiments.

    Every generalized algorithm over the standard radix grid × sizes
    (the Fig. 8 surfaces), followed by the same grid again (the Fig. 9
    best-candidate search re-simulates exactly the points the surfaces
    already timed).  The duplication is the point: it is the redundancy
    the schedule cache and simulation memo exist to exploit.
    """
    machine = machine_by_name(_MACHINE)
    points = [
        SweepPoint(coll, alg, nbytes, k=k, root=0)
        for coll, alg in GENERALIZED_ALGORITHMS
        for k in radix_grid(machine.nranks, min_k=info(coll, alg).min_k)
        for nbytes in _SIZES
    ]
    return machine, points + points


def _measure_sweep() -> Dict[str, float]:
    """Cold path (fresh build + fresh run per point) vs. cached path."""
    machine, points = _sweep_workload()
    cold, cold_s = _timed_sweep(points, machine, reuse=False)
    cached, cached_s = _timed_sweep(points, machine)
    if [r.time for r in cold] != [r.time for r in cached]:
        raise ReproError(
            "perf bench integrity check failed: cached sweep results "
            "differ from the cold path"
        )
    return {"cache_speedup": cold_s / cached_s}


def _measure_recovery() -> Dict[str, float]:
    """Plain simulation vs. the recovery wrapper with nothing to heal.

    A fault-free :func:`repro.recovery.simulate_with_recovery` runs
    exactly one round whose simulated time equals the plain path's bit
    for bit; the gate bounds what the wrapper costs in wall clock.
    """
    machine = machine_by_name(_MACHINE)
    coll, alg, k, nbytes = "allreduce", "recursive_multiplying", 2, 1 << 16
    schedule = info(coll, alg).build(machine.nranks, k=k, root=0)

    def wrapped():
        return simulate_with_recovery(
            coll, alg, machine, nbytes, k=k, recovery="shrink"
        )

    plain = simulate(schedule, machine, nbytes)
    plain_s = _best_of(lambda: simulate(schedule, machine, nbytes), 3)
    healed = wrapped()  # also warms the wrapper's schedule cache
    wrapped_s = _best_of(wrapped, 3)
    if healed.rounds != 1 or healed.time != plain.time:
        raise ReproError(
            "recovery overhead integrity check failed: the fault-free "
            "recovery wrapper changed the simulated result"
        )
    return {"overhead": wrapped_s / plain_s}


def _measure_obs() -> Dict[str, float]:
    """Cached-path sweep with instrumentation off vs. fully on.

    The two runs are back to back and differ only by the
    :mod:`repro.obs` layer; the global scope is left as it was found,
    disabled and empty.
    """
    machine, points = _sweep_workload()
    off, off_s = _timed_sweep(points, machine)
    OBS.enable()
    try:
        on, on_s = _timed_sweep(points, machine)
    finally:
        OBS.disable().reset()
    if [r.time for r in off] != [r.time for r in on]:
        raise ReproError(
            "obs overhead integrity check failed: instrumented sweep "
            "results differ from the uninstrumented path"
        )
    return {"overhead": on_s / off_s}


def _measure_durability() -> Dict[str, float]:
    """The durability layer's two promises.

    First: journaling every completed point and serving schedule builds
    from a disk store must cost almost nothing on the cached sweep in
    steady state — durability that taxes the fast path would just be
    turned off.  The store's one-time population cost (pickling and
    checksumming every built schedule) is left out: it is the capital
    the warm start repays, not a recurring tax.  Second: a fresh process
    warm-starting from the populated store must acquire the grid's
    schedules faster than a cold process building them.
    """
    machine, points = _sweep_workload()
    with tempfile.TemporaryDirectory(
        prefix="repro-durability-", ignore_cleanup_errors=True
    ) as tmpdir:
        tmp = Path(tmpdir)
        store = tmp / "store"
        durable_kw = {"journal": tmp / "sweep.jsonl", "store": store}
        # Population pass: every unique schedule is built once and
        # written through (pickle + checksum + atomic publish), so the
        # durable reps below run in steady state, where the disk tier
        # *serves* builds instead of writing them.
        _timed_sweep(points, machine, **durable_kw)

        # Whole-sweep timing is the median of *paired* reps (plain and
        # durable back to back, so host drift cancels).  It bounds
        # catastrophic per-record regressions — an accidental fsync per
        # record would double it — but on a shared host a ~1 s sweep
        # jitters ±10%, which can never resolve the few-percent promise
        # the 5% gate makes.  The gated overhead is therefore
        # *component-derived* below.
        plain_s = float("inf")
        ratios: List[float] = []
        for _ in range(3):
            plain, rep_plain = _timed_sweep(points, machine)
            durable, rep_durable = _timed_sweep(points, machine, **durable_kw)
            plain_s = min(plain_s, rep_plain)
            ratios.append(rep_durable / rep_plain)
        if [r.time for r in plain] != [r.time for r in durable]:
            raise ReproError(
                "durability integrity check failed: journaled/stored "
                "sweep results differ from the plain cached path"
            )

        # Warm-start value: schedule acquisition for the grid's unique
        # keys, cold (a fresh in-process cache, every build run) vs warm
        # (a fresh process-equivalent cache over the populated store).
        # Best-of-2 on both sides — these are ~100 ms loops where one
        # scheduler hiccup would dominate.
        unique = sorted({(pt.collective, pt.algorithm, pt.k) for pt in points})

        def acquire_cold() -> None:
            cache = ScheduleCache()
            for coll, alg, k in unique:
                cache.get_or_build(coll, alg, machine.nranks, k=k, root=0)

        def acquire_warm() -> None:
            cache = open_schedule_store(store)
            for coll, alg, k in unique:
                _, hit = cache.get_or_build(
                    coll, alg, machine.nranks, k=k, root=0
                )
                if not hit:
                    raise ReproError(
                        "durability bench expected a populated store "
                        f"to serve {coll}/{alg} k={k} warm"
                    )

        cold_s = _best_of(acquire_cold, 2)
        warm_s = _best_of(acquire_warm, 2)

        # Component-derived overhead: what the durable sweep does that
        # the plain sweep does not is (a) one journal append per point
        # and (b) serving its schedules from the disk tier (warm_s)
        # instead of the builder (cold_s).  Each piece is measured over
        # enough iterations to be stable to well under 1%, then scaled
        # by the sweep's actual counts against the plain wall clock.
        record = _result_record(plain[0])
        probes = 1000
        t0 = time.perf_counter()
        with JournalWriter(tmp / "probe.jsonl", truncate=True) as probe:
            for _ in range(probes):
                probe.append(record)
        append_s = (time.perf_counter() - t0) / probes
        journal_s = append_s * (len(points) + 1)  # +1: the header record

    return {
        "overhead": (plain_s + journal_s + warm_s - cold_s) / plain_s,
        "end_to_end": statistics.median(ratios),
        "warm_speedup": cold_s / warm_s,
    }


def _measure_scale() -> Dict[str, float]:
    """The class-collapsed engine at paper-scale p.

    * **budget** — the p=4096 acceptance-grid sweep (butterfly
      algorithms materialized-or-collapsed under ``engine="auto"``, the
      ring family through the lazy generator schedules) completes under
      a wall-clock budget, with zero point errors;
    * **sublinearity** — lazy recursive-doubling allreduce from p=2^10
      to p=2^20 stays one equivalence class, and wall clock grows with
      the event count (log p), not with p.

    Configurations whose materialized footprint is unaffordable at
    p=4096 are left out via :data:`_SCALE_EXCLUSIONS` /
    :data:`_SCALE_RM_MAX_K`, which record why.
    """
    points: List[SweepPoint] = []
    for coll, alg in GENERALIZED_ALGORITHMS:
        if (coll, alg) in _SCALE_EXCLUSIONS:
            continue
        min_k = info(coll, alg).min_k
        for k in sorted({max(k, min_k) for k in _SCALE_RADICES}):
            if alg == "recursive_multiplying" and k > _SCALE_RM_MAX_K:
                continue
            points.append(SweepPoint(coll, alg, _SCALE_NBYTES, k=k, root=0))
    points += [
        SweepPoint(coll, alg, _SCALE_NBYTES, k=None, root=0)
        for coll, alg in _SCALE_LAZY_FAMILIES
    ]
    results, wall_s = _timed_sweep(points, reference(_SCALE_P), engine="auto")
    errors = sweep_errors(results)
    if errors:
        raise ReproError(
            f"scale p={_SCALE_P} sweep: {len(errors)} point(s) failed, "
            f"first: {errors[0]}"
        )

    probe_s: List[float] = []
    for p in _SCALE_SUBLINEAR_PS:
        machine = reference(p)

        def cold() -> None:
            # A fresh lazy schedule per call: a repeat on the same object
            # would time the compile, class and plan caches, not the
            # engine.
            lazy = lookup("allreduce", "recursive_doubling", p)
            if lazy is None:
                raise ReproError(
                    f"scale probe expected a lazy recursive-doubling "
                    f"allreduce at p={p}"
                )
            res = simulate(lazy, machine, _SCALE_NBYTES, engine="collapsed")
            if res.engine != "collapsed" or res.nclasses != 1:
                raise ReproError(
                    f"scale probe at p={p} did not collapse to one class "
                    f"(engine={res.engine}, nclasses={res.nclasses}, "
                    f"fallback={res.fallback})"
                )

        # The p=2^10 call is sub-millisecond: one sample of it in the
        # denominator swung the ratio 3x run to run.
        probe_s.append(_best_of(cold, 3, min_wall_s=0.05))
    return {
        "sweep_wall_s": wall_s,
        "sublinear_ratio": probe_s[-1] / probe_s[0],
    }


def _measure_serve() -> Dict[str, float]:
    """Cold tune vs. a tune warm-started from a selection config.

    The priors (:meth:`repro.selection.SelectionConfig.sweep_priors`)
    replay recorded timings instead of simulating, so speed is the only
    thing allowed to change: the artifact must come out bit-identical.
    """
    machine = reference(_SERVE_P)

    def timed_tune(**kwargs):
        _clear_caches()
        t0 = time.perf_counter()
        config = tune(
            machine, _SERVE_SIZES, collectives=_SERVE_COLLECTIVES, **kwargs
        )
        return config, time.perf_counter() - t0

    cold, cold_s = timed_tune()
    warm, warm_s = timed_tune(priors=cold.sweep_priors())
    if warm.to_json() != cold.to_json():
        raise ReproError(
            "serve integrity check failed: the prior-warmed tune "
            "diverged from the cold tune"
        )
    return {"warm_speedup": cold_s / warm_s}


_MEASURES: Dict[str, Callable[[], Dict[str, float]]] = {
    "sweep": _measure_sweep,
    "recovery": _measure_recovery,
    "obs": _measure_obs,
    "durability": _measure_durability,
    "scale": _measure_scale,
    "serve": _measure_serve,
}


def run_gates() -> List[Dict]:
    """Run each measure once and judge every :data:`GATES` row.

    Returns one dict per row, in table order: ``name``, ``value``
    (``None`` when there is nothing to compare), ``op``, ``bound``,
    ``ok``, ``error`` and ``why``.  A :class:`ReproError` from a measure
    fails that measure's rows with its message and the run continues; a
    fact the measure did not report fails the row that wanted it.
    """
    facts: Dict[str, Dict[str, float]] = {}
    errors: Dict[str, str] = {}
    for measure in dict.fromkeys(gate.measure for gate in GATES):
        try:
            facts[measure] = _MEASURES[measure]()
        except ReproError as exc:
            errors[measure] = str(exc)
    report = []
    for gate in GATES:
        value = facts.get(gate.measure, {}).get(gate.fact)
        error = errors.get(gate.measure)
        if error is None and value is None:
            error = (
                f"measure {gate.measure!r} reported no fact {gate.fact!r}"
            )
        report.append({
            "name": gate.name,
            "value": value,
            "op": gate.op,
            "bound": gate.bound,
            "ok": error is None and _OPS[gate.op](value, gate.bound),
            "error": error,
            "why": gate.why,
        })
    return report


def format_report(report: Sequence[Dict]) -> str:
    """One line per row: ``name value op bound ok|FAIL``.

    A failing line adds the measure's error, or else the reason for the
    bound.
    """
    lines = []
    for row in report:
        value = "-" if row["value"] is None else f"{row['value']:.4g}"
        verdict = "ok" if row["ok"] else f"FAIL: {row['error'] or row['why']}"
        lines.append(
            f"{row['name']:<24} {value:>7} {row['op']:>2} "
            f"{row['bound']:<5g} {verdict}"
        )
    return "\n".join(lines)
