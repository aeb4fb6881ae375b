"""Radix sweeps — the measurement behind paper Figs. 8, 10, and 11.

Two layers live here:

* The **parallel sweep engine**: a sweep is a list of
  :class:`SweepPoint` records — one (collective, algorithm, k, root,
  size) configuration each — that :func:`run_sweep` simulates either
  serially or fanned out over a ``ProcessPoolExecutor`` (``jobs``).
  The determinism contract (pinned by
  ``tests/properties/test_schedule_cache.py``) is:

  1. results come back in point order, bit-identical to the serial run,
     for any ``jobs`` value — simulation is pure and the pool preserves
     submission order;
  2. a failing point never takes down its siblings: each point carries
     its own ``error`` field instead of raising mid-sweep;
  3. schedule builds are served by the content-addressed
     :class:`~repro.core.cache.ScheduleCache` (process-global, one per
     worker), and every point records whether its build was a cache hit
     so hit rates aggregate correctly across worker processes.

  Points sharing one schedule are simulated inside one chunk (contiguous
  grouping), so a (k × sizes) grid builds each schedule once per worker
  instead of once per point.

  Since the durability PR the engine is also **crash-safe**: pass
  ``journal=`` to append every completed point to a crash-safe JSONL
  journal (:mod:`repro.store.journal`) and ``resume=True`` to replay it,
  re-running only missing or failed points — the merged results carry
  the same ``(point, time, error)`` content as an uninterrupted run.
  ``store=`` backs schedule builds with a disk-backed
  :class:`~repro.core.cache.ScheduleCache` for the
  duration of the sweep, and worker crashes are healed by the hardened
  executor (:mod:`repro.parallel`): a poison point that keeps killing
  its worker is quarantined as a structured error record while its
  siblings complete.

* :class:`RadixSweep` holds the full (k × message-size) latency surface
  for one generalized algorithm on one machine, with accessors for the
  views the paper plots: latency-vs-k at a size (Fig. 8), latency-vs-size
  at chosen radices against baselines (Fig. 10), and the optimal radix
  per size.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.cache import (
    ContentCache,
    ScheduleCache,
    global_schedule_cache,
    set_global_schedule_cache,
)
from ..core.registry import info
from ..errors import ClassAnalysisError, ReproError, StoreError
from ..faults.plan import FaultPlan
from ..obs import OBS, MetricsSnapshot, SimTimeline, SpanRecord, TraceContext
from ..parallel import ChunkFailure, resolve_jobs, run_chunks
from ..simnet.machine import MachineSpec
from ..simnet.machines import resolve as resolve_machine
from ..simnet.noise import NoiseModel
from ..simnet.simulate import simulate
from ..selection.tuner import radix_grid
from ..store.journal import JournalWriter, journal_header, read_journal
from ..store.schedules import open_schedule_store

__all__ = [
    "SweepPoint",
    "SweepPointResult",
    "SweepStats",
    "sweep_stats",
    "simulate_point",
    "clear_sim_memo",
    "run_sweep",
    "sweep_errors",
    "sweep_fingerprint",
    "RadixSweep",
    "radix_latency_sweep",
]

#: Crash-injection hook for the durability tests and the soak harness: a
#: ``collective/algorithm/k/nbytes`` spec in this environment variable
#: makes the matching point kill its process with ``os._exit`` —
#: simulating a worker segfault mid-chunk.  Only meaningful with
#: ``jobs >= 2`` (in the serial path there is no worker to sacrifice).
POISON_ENV = "REPRO_SWEEP_POISON"


# ----------------------------------------------------------------------
# The parallel sweep engine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One sweep configuration: a schedule choice at one message size."""

    collective: str
    algorithm: str
    nbytes: int
    k: Optional[int] = None
    root: int = 0

    def schedule_params(self) -> Tuple[str, str, Optional[int], int]:
        return (self.collective, self.algorithm, self.k, self.root)


@dataclass(frozen=True)
class SweepPointResult:
    """Outcome of one point: a simulated time or an isolated error.

    ``cache_hit`` records whether the schedule build was served by the
    worker's :class:`~repro.core.cache.ScheduleCache` — the lookup every
    reusing point makes before it consults the memo, so a memo hit after
    the schedule cache was emptied is a build miss; it is False for
    ``reuse=False`` and for lazily routed points, which never look.
    ``sim_hit`` records whether the kernel run was served by the memo:
    some earlier point handed the kernel the identical table (possibly
    under another algorithm name or radix) on the same machine with the
    same noise and faults.  Both travel with the result (rather than
    living in worker-process globals) so hit rates aggregate correctly
    across any number of pool workers.

    ``traceback`` preserves the worker-side stack for failed points —
    the worker that raised may be long gone (or dead) by the time the
    record is read, and journal replay of a historical run has nothing
    else to explain the failure with.
    """

    point: SweepPoint
    time: Optional[float]  # seconds; None when the point errored
    cache_hit: bool
    error: Optional[str] = None
    sim_hit: bool = False
    traceback: Optional[str] = None

    @property
    def time_us(self) -> float:
        if self.time is None:
            raise ReproError(
                f"sweep point {self.point} failed: {self.error}"
            )
        return self.time * 1e6


@dataclass(frozen=True)
class SweepStats:
    """Aggregate cache/memo accounting for one sweep's results.

    The frozen, ``to_dict()``-bearing consolidation of what used to be
    loose ``cache_hit``/``sim_hit`` booleans — same protocol as
    :class:`~repro.core.cache.CacheStats` and
    :class:`~repro.simnet.trace.TimelineStats`, so sweep accounting
    drops uniformly into :mod:`repro.obs` snapshots and JSON reports.

    The two counts are independent: ``build_hits`` counts schedule-cache
    lookups that hit, ``sim_hits`` points whose kernel table was already
    simulated — including tables first met under another name, such as
    ``knomial k=2`` after ``binomial``.
    """

    points: int
    errors: int
    build_hits: int
    sim_hits: int

    @property
    def build_hit_rate(self) -> float:
        return self.build_hits / self.points if self.points else 0.0

    @property
    def sim_memo_rate(self) -> float:
        return self.sim_hits / self.points if self.points else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "points": self.points,
            "errors": self.errors,
            "build_hits": self.build_hits,
            "sim_hits": self.sim_hits,
            "build_hit_rate": self.build_hit_rate,
            "sim_memo_rate": self.sim_memo_rate,
        }


def sweep_stats(results: Sequence[SweepPointResult]) -> SweepStats:
    """Fold per-point hit booleans into one :class:`SweepStats`."""
    return SweepStats(
        points=len(results),
        errors=sum(1 for r in results if r.error is not None),
        build_hits=sum(1 for r in results if r.cache_hit),
        sim_hits=sum(1 for r in results if r.sim_hit),
    )


#: Memo of completed simulations, keyed on what the kernel reads (see
#: :func:`_table_key`) plus ``(machine, noise, faults)``.  The Fig. 9
#: speedup search re-simulates the very points the Fig. 8 surfaces
#: timed, and degenerate radices rebuild the classic algorithms' tables.
_SIM_MEMO = ContentCache("sim", 1 << 16)

#: Rank count from which sweep points route through the lazy generator
#: schedules (:mod:`repro.core.lazy`) when one covers the point and its
#: class analysis collapses — above it, materializing p per-rank op lists
#: dominates the sweep's wall clock, below it the build cache is cheap
#: enough that bypassing it buys nothing.
_LAZY_SWEEP_MIN_RANKS = 2048


def clear_sim_memo() -> None:
    """Drop every memoized simulation result (perf-bench cold runs)."""
    _SIM_MEMO.clear()


def _table_key(schedule, nbytes: int) -> Tuple:
    """``(plan digest, message-size digest)``: the schedule half of a
    :data:`_SIM_MEMO` key.

    Why it is exact.  A materialized run reads the schedule only through
    its :meth:`~repro.core.schedule.Schedule.sim_plan` and the block
    sizes: :func:`~repro.simnet.simulate._route` reads ``src`` /
    ``dst``; :func:`~repro.faults.sim.analyze` the endpoints, ``seq``,
    each message's send and receive step and the per-rank step counts
    (all fixed by ``codes`` / ``bounds`` / ``first``);
    :func:`~repro.simnet.simulate.cost_columns` the message sizes,
    ``reduce``, the step counts and ``(src, dst, seq)``; and
    :func:`~repro.simnet.kernel.run` ``codes`` / ``bounds`` / ``first``
    / ``src`` / ``dst`` plus those columns (the plan's contention hint aside: it only decides
    whether the kernel tries its certified shortcut, never a result).
    Everything else they read is the machine, the noise model and the
    fault plan — the rest of the key.  So two points with
    one key hand the kernel identical tables and get the identical
    float, whatever their names: ``bcast/knomial k=2`` replays
    ``bcast/binomial``, ``allreduce/kring k=1`` replays ``ring``.  The
    key names no simulation core: ``simulate`` picks one itself, and the
    cores are bit-identical.  ``tests/test_sim_memo.py`` checks
    over the registry grid that equal keys mean equal kernel arguments.

    The plan is the schedule's own memo: keying a point hashes no
    schedule text and looks nothing up in the compiled cache.  A lazy
    generator schedule (:mod:`repro.core.lazy`) keys on its own content
    fingerprint and block sizes, without materializing it.
    """
    sizes = schedule.block_map(nbytes).sizes
    if getattr(schedule, "is_lazy", False):
        return schedule.fingerprint(), _size_digest(sizes)
    plan = schedule.sim_plan()
    return plan.digest(), _size_digest(plan.message_bytes(sizes))


def _size_digest(sizes: Sequence[int]) -> bytes:
    """A 16-byte blake2b of an integer size column."""
    data = np.asarray(sizes, dtype="<i8").tobytes()
    return hashlib.blake2b(data, digest_size=16).digest()


def simulate_point(
    machine: MachineSpec,
    point: SweepPoint,
    *,
    noise: Optional[NoiseModel] = None,
    faults: Optional[FaultPlan] = None,
    reuse: bool = True,
) -> SweepPointResult:
    """Simulate one point, reusing cached schedules and memoized results.

    A reusing point looks its schedule up in the schedule cache, then
    its kernel table (the schedule's own plan) in the memo
    (:func:`_table_key`); only a memo miss runs the simulator.
    ``reuse=False`` bypasses both the schedule cache and the simulation
    memo (a fresh build and a fresh run) — the perf-regression benchmark
    uses it to measure the cold path, and the property tests use it to
    prove reuse never changes a result.  Raises nothing: errors come back
    in the result record.

    :func:`~repro.simnet.simulate.simulate` picks the simulation core
    (``engine="auto"``); the cores are bit-identical, which is why the
    memo key ignores the choice.  At large p (≥
    ``_LAZY_SWEEP_MIN_RANKS``) eligible points route through the lazy
    generator schedules (:func:`repro.core.lazy.lookup`), skipping the
    per-rank materialization entirely.

    With observability enabled the point's wall time lands in the
    ``repro_sweep_point_seconds`` histogram and a per-outcome counter —
    never changing the simulated result itself.
    """
    if not OBS.enabled:
        return _simulate_point_impl(
            machine, point, noise=noise, faults=faults, reuse=reuse,
        )
    t0 = time.perf_counter()
    res = _simulate_point_impl(
        machine, point, noise=noise, faults=faults, reuse=reuse,
    )
    dt = time.perf_counter() - t0
    outcome = (
        "error" if res.error is not None
        else ("memo" if res.sim_hit else "simulated")
    )
    m = OBS.metrics
    m.counter("repro_sweep_points_total", outcome=outcome).inc()
    m.histogram("repro_sweep_point_seconds").observe(dt)
    return res


def _simulate_point_impl(
    machine: MachineSpec,
    point: SweepPoint,
    *,
    noise: Optional[NoiseModel],
    faults: Optional[FaultPlan],
    reuse: bool,
) -> SweepPointResult:
    try:
        entry = info(point.collective, point.algorithm)
        root = point.root if entry.takes_root else 0
        schedule = _lazy_route(machine, point, root,
                               noise=noise, faults=faults)
        hit = False
        if schedule is None:
            if reuse:
                schedule, hit = global_schedule_cache().get_or_build(
                    point.collective,
                    point.algorithm,
                    machine.nranks,
                    k=point.k,
                    root=root,
                )
            else:
                schedule = entry.build(machine.nranks, k=point.k, root=root)
        if reuse:
            key = (*_table_key(schedule, point.nbytes), machine, noise,
                   faults)
            memo_time = _SIM_MEMO.get(key)
            if memo_time is not None:
                return SweepPointResult(point, memo_time, hit, sim_hit=True)
        sim = simulate(
            schedule, machine, point.nbytes, noise=noise, faults=faults,
        )
        if reuse:
            _SIM_MEMO.put(key, sim.time)
        return SweepPointResult(point, sim.time, hit)
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        return SweepPointResult(
            point,
            None,
            False,
            f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )


def _lazy_route(
    machine: MachineSpec,
    point: SweepPoint,
    root: int,
    *,
    noise: Optional[NoiseModel],
    faults: Optional[FaultPlan],
):
    """The lazy generator schedule for ``point``, or None to build normally.

    Routing is opt-in by scale: only at p ≥ ``_LAZY_SWEEP_MIN_RANKS`` on
    symmetric runs, and only when the class analysis actually succeeds —
    so a routed point is guaranteed to take the collapsed core rather
    than falling back to a materialization that might exceed the lazy
    op-count guard.
    """
    if machine.nranks < _LAZY_SWEEP_MIN_RANKS:
        return None
    if noise is not None or faults is not None:
        return None
    from ..core.lazy import lookup

    lazy = lookup(point.collective, point.algorithm, machine.nranks,
                  k=point.k, root=root)
    if lazy is None:
        return None
    try:
        lazy.classes(machine, point.nbytes)
    except ClassAnalysisError:
        return None
    return lazy


def _maybe_injected_crash(point: SweepPoint) -> None:
    """Kill the process if ``point`` matches the ``POISON_ENV`` spec.

    The crash is deliberately unmaskable (``os._exit`` skips every
    ``finally`` and atexit hook, like a segfault would) — it exists so
    the durability tests and ``repro.bench.soak`` can prove a poisoned
    point is quarantined rather than aborting the sweep.
    """
    spec = os.environ.get(POISON_ENV)
    if not spec:
        return
    parts = spec.split("/")
    if len(parts) != 4:
        return
    if (point.collective, point.algorithm, str(point.k),
            str(point.nbytes)) == tuple(parts):
        os._exit(139)


# A chunk ships everything one worker call needs in a single pickle.
# The trailing TraceContext is None unless the parent sweep is being
# observed — workers join its trace and ship their records back.
_ChunkTask = Tuple[MachineSpec, Optional[NoiseModel], Optional[FaultPlan],
                   bool, Tuple[SweepPoint, ...],
                   Optional[TraceContext]]


@dataclass(frozen=True)
class _ObsEnvelope:
    """A worker chunk's results plus its observability records.

    Spans/timelines/metrics recorded inside a pool worker cannot reach
    the parent's registry directly; they ride home with the results and
    :func:`run_sweep` splices them in, which is how ``--jobs N`` yields
    one merged trace instead of N orphans.
    """

    results: Tuple[SweepPointResult, ...]
    spans: Tuple[SpanRecord, ...]
    timelines: Tuple[SimTimeline, ...]
    metrics: MetricsSnapshot
    busy_s: float


def _run_chunk(task: _ChunkTask):
    """Simulate one chunk of points (runs inside a worker process).

    Never raises: per-point errors are folded into the results so one
    bad configuration cannot poison the pool or its sibling points.
    """
    machine, noise, faults, reuse, points, ctx = task
    if ctx is None or ctx.origin_pid == os.getpid():
        # Plain path — or the parent process itself (serial/degenerate
        # pool), where records land directly in the live registry.  The
        # pid check, not OBS.enabled, identifies a worker: fork-started
        # workers inherit the parent's enabled scope wholesale.
        out = []
        for pt in points:
            _maybe_injected_crash(pt)
            out.append(
                simulate_point(
                    machine, pt, noise=noise, faults=faults, reuse=reuse,
                )
            )
        return out
    # Pool worker joining an observed parent sweep: open a fresh scope
    # under the parent's trace context, capture, and ship everything back.
    OBS.reset()
    OBS.enable(context=ctx)
    t0 = time.perf_counter()
    try:
        with OBS.span("sweep_chunk", points=len(points)):
            results = []
            for pt in points:
                _maybe_injected_crash(pt)
                results.append(
                    simulate_point(
                        machine, pt, noise=noise, faults=faults,
                        reuse=reuse,
                    )
                )
    finally:
        busy = time.perf_counter() - t0
        spans = OBS.tracer.spans()
        timelines = OBS.tracer.timelines()
        snap = OBS.metrics.snapshot()
        OBS.disable()
        OBS.reset()
    return [
        _ObsEnvelope(
            results=tuple(results),
            spans=spans,
            timelines=timelines,
            metrics=snap,
            busy_s=busy,
        )
    ]


def _chunk_points(
    machine: MachineSpec,
    noise: Optional[NoiseModel],
    faults: Optional[FaultPlan],
    reuse: bool,
    points: Sequence[SweepPoint],
    ctx: Optional[TraceContext] = None,
) -> List[_ChunkTask]:
    """Group consecutive points that share a schedule into one chunk.

    One chunk per distinct (collective, algorithm, k, root) run keeps the
    schedule build amortized inside each worker (built once, hit by every
    other size in the chunk) while still giving the pool one task per
    schedule to balance across.
    """
    chunks: List[_ChunkTask] = []
    group: List[SweepPoint] = []
    for pt in points:
        if group and pt.schedule_params() != group[-1].schedule_params():
            chunks.append(
                (machine, noise, faults, reuse, tuple(group), ctx)
            )
            group = []
        group.append(pt)
    if group:
        chunks.append((machine, noise, faults, reuse, tuple(group), ctx))
    return chunks


def _split_chunk(task: _ChunkTask) -> List[_ChunkTask]:
    """Split a failing chunk into single-point tasks (poison cornering)."""
    machine, noise, faults, reuse, points, ctx = task
    return [(machine, noise, faults, reuse, (pt,), ctx) for pt in points]


def _chunk_error_records(
    task: _ChunkTask, failure: ChunkFailure
) -> List[SweepPointResult]:
    """Structured error records for a quarantined chunk's points.

    The executor hands us a chunk whose worker kept dying (or hanging);
    there is no worker traceback to preserve — the process is gone — so
    the record carries the executor's mechanical story instead.
    """
    points = task[4]
    error = f"ChunkFailure: {failure}"
    note = (
        "worker process lost before a traceback could be captured "
        f"(failure kind: {failure.kind}, attempts: {failure.attempts})"
    )
    return [
        SweepPointResult(pt, None, False, error, traceback=note)
        for pt in points
    ]


# ----------------------------------------------------------------------
# The sweep journal: each completed point becomes one crash-safe record
# ----------------------------------------------------------------------


def _point_key(point: SweepPoint) -> str:
    """The journal identity of one point (duplicates share a key)."""
    return (
        f"{point.collective}/{point.algorithm}/k={point.k}/"
        f"root={point.root}/n={point.nbytes}"
    )


def sweep_fingerprint(
    points: Sequence[SweepPoint],
    machine: Union[str, MachineSpec],
    *,
    noise: Optional[NoiseModel] = None,
    faults: Optional[FaultPlan] = None,
    reuse: bool = True,
) -> str:
    """Content hash of a sweep configuration.

    Written into the journal header and re-checked on ``resume=True`` so
    a journal can never be spliced into a sweep over a different grid,
    machine, or noise/fault plan — replaying foreign results would
    silently corrupt science.  All components hash by ``repr`` of frozen
    dataclasses, which pin every parameter that affects a result.  A
    machine given by registry name hashes as its resolved spec, so
    ``"reference-64"`` and ``reference(64)`` share journals.
    """
    h = hashlib.sha256()
    h.update(repr(resolve_machine(machine)).encode())
    h.update(f"|noise={noise!r}|faults={faults!r}|reuse={reuse}".encode())
    for pt in points:
        h.update(b"|")
        h.update(_point_key(pt).encode())
    return h.hexdigest()


def _result_record(res: SweepPointResult) -> Dict:
    """One journal line's payload for a completed point."""
    return {
        "kind": "point",
        "key": _point_key(res.point),
        "time": res.time,
        "error": res.error,
        "traceback": res.traceback,
        "cache_hit": res.cache_hit,
        "sim_hit": res.sim_hit,
    }


def _result_from_record(rec: Dict, point: SweepPoint) -> SweepPointResult:
    """Rehydrate a journaled record against the current sweep's point."""
    return SweepPointResult(
        point,
        rec.get("time"),
        bool(rec.get("cache_hit")),
        rec.get("error"),
        sim_hit=bool(rec.get("sim_hit")),
        traceback=rec.get("traceback"),
    )


def _open_sweep_journal(
    path: Union[str, Path],
    resume: bool,
    fingerprint: str,
) -> Tuple[JournalWriter, Dict[str, Dict]]:
    """Open (or resume) a sweep journal.

    Returns the writer plus the successfully completed records to
    replay, keyed by point key.  Resuming validates the header
    fingerprint; a fresh run truncates whatever was there.  Failed
    points are deliberately *not* replayed — resume re-runs them, which
    is how a transient crash heals instead of being remembered forever.
    """
    replayed: Dict[str, Dict] = {}
    has_header = False
    if resume:
        records, _skipped = read_journal(path)
        header = journal_header(records)
        if header is not None:
            if header.get("sweep") != fingerprint:
                raise StoreError(
                    f"journal {path} was written by a different sweep "
                    f"configuration (header fingerprint "
                    f"{header.get('sweep')!r} != {fingerprint!r}); "
                    "refusing to splice foreign results"
                )
            has_header = True
        for rec in records:
            if rec.get("kind") == "point" and rec.get("error") is None:
                replayed[rec["key"]] = rec
    writer = JournalWriter(path, truncate=not resume)
    if not has_header:
        writer.append({"kind": "header", "sweep": fingerprint})
    return writer, replayed


def run_sweep(
    points: Sequence[SweepPoint],
    machine: Union[str, MachineSpec],
    *,
    jobs: int = 0,
    noise: Optional[NoiseModel] = None,
    faults: Optional[FaultPlan] = None,
    reuse: bool = True,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
    store: Optional[Union[str, Path, ScheduleCache]] = None,
    retries: int = 2,
    deadline: Optional[float] = None,
    isolate: bool = False,
) -> List[SweepPointResult]:
    """Simulate every point on ``machine``; results in point order.

    ``machine`` is a spec or a registry name
    (:func:`repro.simnet.machines.get`).

    ``jobs=0``/``1`` runs serially in-process; ``jobs>=2`` fans chunks
    out to a process pool; ``jobs<0`` uses every core.  Output is
    bit-identical across all of them, and — because simulation is pure —
    across ``reuse`` settings too.  With observability enabled the whole
    sweep is one ``sweep`` span; worker spans and metrics merge back into
    it (see :class:`_ObsEnvelope`), and worker utilization lands in
    ``repro_sweep_worker_busy_seconds_total``.

    Durability (all optional — the defaults behave exactly as before):

    ``journal``
        Append every completed point to this crash-safe JSONL file as it
        finishes (completion order; the returned list stays in point
        order).  A run killed at any instant loses at most its in-flight
        chunks.
    ``resume``
        Replay the journal first and simulate only missing or failed
        points.  The merged results carry identical ``(point, time,
        error)`` content to an uninterrupted run — only the
        ``cache_hit``/``sim_hit`` execution metadata may differ, since
        the resumed process starts with cold caches.  A journal from a
        different sweep configuration is refused
        (:class:`~repro.errors.StoreError`).
    ``store``
        Path (or ready :class:`~repro.core.cache.ScheduleCache`) backing
        schedule builds with a disk tier for the duration of the sweep;
        forked pool workers inherit the attachment and share the
        directory through its advisory lock.
    ``retries`` / ``deadline`` / ``isolate``
        Passed to the hardened executor (see
        :func:`repro.parallel.run_chunks`): worker crashes re-dispatch
        on a fresh pool, repeat offenders are quarantined as structured
        error records, hung chunks are killed after ``deadline`` seconds
        of stall, and ``isolate=True`` forces real worker processes even
        on single-core hosts (crash isolation needs a process boundary).
    """
    machine = resolve_machine(machine)
    if store is not None and not isinstance(store, ScheduleCache):
        store = open_schedule_store(store)
    previous_cache = None
    if store is not None:
        previous_cache = set_global_schedule_cache(store)
    try:
        fingerprint = None
        writer: Optional[JournalWriter] = None
        replayed: Dict[str, Dict] = {}
        pending: Sequence[SweepPoint] = points
        if journal is not None:
            fingerprint = sweep_fingerprint(
                points, machine, noise=noise, faults=faults, reuse=reuse
            )
            writer, replayed = _open_sweep_journal(
                journal, resume, fingerprint
            )
            if replayed:
                pending = [
                    pt for pt in points if _point_key(pt) not in replayed
                ]
        try:
            computed = _dispatch_sweep(
                pending, machine, jobs=jobs, noise=noise, faults=faults,
                reuse=reuse, writer=writer, retries=retries, deadline=deadline,
                isolate=isolate,
            )
        finally:
            if writer is not None:
                writer.close()
        if not replayed:
            return computed
        merged: List[SweepPointResult] = []
        fresh = iter(computed)
        for pt in points:
            rec = replayed.get(_point_key(pt))
            if rec is not None:
                merged.append(_result_from_record(rec, pt))
            else:
                merged.append(next(fresh))
        return merged
    finally:
        if previous_cache is not None:
            set_global_schedule_cache(previous_cache)


def _dispatch_sweep(
    points: Sequence[SweepPoint],
    machine: MachineSpec,
    *,
    jobs: int,
    noise: Optional[NoiseModel],
    faults: Optional[FaultPlan],
    reuse: bool,
    writer: Optional[JournalWriter],
    retries: int,
    deadline: Optional[float],
    isolate: bool,
) -> List[SweepPointResult]:
    """Chunk, fan out, journal, and (with obs) merge worker records."""

    def journal_chunk(_index: int, _task, results) -> None:
        # run_chunks calls this in completion order, in the parent —
        # exactly when a chunk's results are safe to persist.  Envelopes
        # are unwrapped here and *also* kept in the returned stream for
        # the observability merge below.
        for item in results:
            if isinstance(item, _ObsEnvelope):
                for res in item.results:
                    writer.append(_result_record(res))
            else:
                writer.append(_result_record(item))

    on_done = journal_chunk if writer is not None else None
    if not OBS.enabled:
        chunks = _chunk_points(machine, noise, faults, reuse, points)
        return run_chunks(
            _run_chunk, chunks, jobs=jobs, retries=retries,
            deadline=deadline, on_chunk_error=_chunk_error_records,
            split=_split_chunk, on_chunk_done=on_done, isolate=isolate,
        )
    with OBS.span("sweep", points=len(points), jobs=jobs):
        effective = resolve_jobs(jobs)
        ctx = OBS.tracer.context() if effective >= 2 or isolate else None
        chunks = _chunk_points(machine, noise, faults, reuse, points, ctx)
        t0 = time.perf_counter()
        raw = run_chunks(
            _run_chunk, chunks, jobs=jobs, retries=retries,
            deadline=deadline, on_chunk_error=_chunk_error_records,
            split=_split_chunk, on_chunk_done=on_done, isolate=isolate,
        )
        wall = time.perf_counter() - t0
        out: List[SweepPointResult] = []
        busy = 0.0
        merged = 0
        for item in raw:
            if isinstance(item, _ObsEnvelope):
                merged += 1
                OBS.tracer.adopt(item.spans, item.timelines)
                OBS.metrics.merge(item.metrics)
                busy += item.busy_s
                out.extend(item.results)
            else:
                out.append(item)
        if merged:
            m = OBS.metrics
            m.counter("repro_sweep_worker_busy_seconds_total").inc(busy)
            if wall > 0 and effective >= 2:
                m.gauge("repro_sweep_worker_utilization").set_max(
                    busy / (wall * effective)
                )
        return out


def sweep_errors(results: Sequence[SweepPointResult]) -> List[str]:
    """Collect the error strings of failed points (empty when clean)."""
    return [
        f"{r.point.collective}/{r.point.algorithm} k={r.point.k} "
        f"n={r.point.nbytes}: {r.error}"
        for r in results
        if r.error is not None
    ]


# ----------------------------------------------------------------------
# The radix-sweep surface (Figs. 8, 10, 11)
# ----------------------------------------------------------------------


@dataclass
class RadixSweep:
    """Latency surface ``times_us[k][nbytes]`` for one algorithm."""

    collective: str
    algorithm: str
    machine: str
    nranks: int
    sizes: List[int]
    ks: List[int]
    times_us: Dict[int, Dict[int, float]] = field(default_factory=dict)

    def latency(self, k: int, nbytes: int) -> float:
        try:
            return self.times_us[k][nbytes]
        except KeyError:
            raise ReproError(
                f"sweep has no point (k={k}, n={nbytes})"
            ) from None

    def series_for_k(self, k: int) -> List[Tuple[int, float]]:
        """(size, latency) series at a fixed radix — a Fig. 10 line."""
        return [(n, self.latency(k, n)) for n in self.sizes]

    def series_for_size(self, nbytes: int) -> List[Tuple[int, float]]:
        """(k, latency) series at a fixed size — a Fig. 8 line."""
        return [(k, self.latency(k, nbytes)) for k in self.ks]

    def best_k(self, nbytes: int) -> int:
        """Radix minimizing latency at a size (ties → smaller k)."""
        return min(self.ks, key=lambda k: (self.latency(k, nbytes), k))

    def best_k_per_size(self) -> Dict[int, int]:
        return {n: self.best_k(n) for n in self.sizes}

    def best_latency(self, nbytes: int) -> float:
        return min(self.latency(k, nbytes) for k in self.ks)

    def flatness(self, nbytes: int) -> float:
        """max/min latency ratio across k at one size.

        Near 1.0 means the radix barely matters — the quantity behind the
        paper's "parameter value shows minimal effect" claim for k-ring on
        Polaris (Fig. 11c).
        """
        series = [self.latency(k, nbytes) for k in self.ks]
        return max(series) / min(series)


def radix_latency_sweep(
    collective: str,
    algorithm: str,
    machine: Union[str, MachineSpec],
    sizes: Sequence[int],
    *,
    ks: Optional[Sequence[int]] = None,
    root: int = 0,
    noise: Optional[NoiseModel] = None,
    jobs: int = 0,
) -> RadixSweep:
    """Simulate a generalized algorithm across a (k × size) grid.

    With ``ks=None`` the grid is :func:`repro.selection.tuner.radix_grid`
    over the machine's rank count — the same grid the tuner and the
    analytical profiles use.  ``jobs`` fans the grid out over worker
    processes without changing a single result (see :func:`run_sweep`).
    """
    machine = resolve_machine(machine)
    entry = info(collective, algorithm)
    if not entry.takes_k:
        raise ReproError(
            f"{collective}/{algorithm} is not a generalized algorithm"
        )
    p = machine.nranks
    grid = list(ks) if ks is not None else radix_grid(p, min_k=entry.min_k)
    sweep = RadixSweep(
        collective=collective,
        algorithm=algorithm,
        machine=machine.name,
        nranks=p,
        sizes=list(sizes),
        ks=grid,
    )
    points = [
        SweepPoint(
            collective,
            algorithm,
            nbytes,
            k=k,
            root=root if entry.takes_root else 0,
        )
        for k in grid
        for nbytes in sizes
    ]
    results = run_sweep(points, machine, jobs=jobs, noise=noise)
    errors = sweep_errors(results)
    if errors:
        raise ReproError(
            f"{len(errors)} sweep point(s) failed: " + "; ".join(errors[:4])
        )
    for res in results:
        sweep.times_us.setdefault(res.point.k, {})[res.point.nbytes] = (
            res.time_us
        )
    return sweep
