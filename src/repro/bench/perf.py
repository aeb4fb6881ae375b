"""Performance-regression benchmark — the repo's perf trajectory anchor.

The functional suite pins *what* the simulator computes; this module pins
*how fast*, in three tiers:

* **schedule build** — cold (a fresh builder call) vs. served by the
  content-addressed :class:`~repro.core.cache.ScheduleCache`;
* **single simulation** — cold vs. served by the sweep engine's
  simulation memo;
* **full sweep** — the combined Fig. 8 + Fig. 9 workload (every
  generalized algorithm over the standard radix × size grid, then the
  speedup search re-visiting the same grid, exactly the redundancy the
  real experiments exhibit), timed on the cold path (``reuse=False``:
  fresh build + fresh run per point, the pre-cache behavior) against the
  cached path, at each requested ``--jobs`` level.

Later PRs added tiers in the same mold: **recovery** (the fault-free
self-healing wrapper must stay pay-for-what-you-break), **obs**
(instrumentation disabled must cost nothing, enabled must stay within
2x), **durability** (journaling plus the disk schedule store must
stay within 5% of the plain cached sweep, and a warm start from a
populated store must beat a cold in-process run), and **serve** (the tuning
service: N concurrent ``/tune`` requests must coalesce into one sweep,
a selection-config warm start must beat a cold tune 2x, and every
served selection must be bit-identical to the in-process tuner — see
:mod:`repro.server`).

:func:`run_perf` produces a JSON-able report; ``repro-bench-perf``
writes it to ``BENCH_perf.json``.  The committed copy at the repo root
is the baseline: :func:`check_regression` compares a fresh report
against it and flags schedule-build slowdowns beyond a tolerance factor
— the gate CI enforces.  Wall-clock numbers are host-dependent, which is
why the gate is a generous ratio (default 2×) on the most stable metric
(schedule build) rather than an absolute time.

Determinism note: the report also re-asserts, on every run, that the
cold and cached full-sweep paths produce bit-identical simulated times —
a perf number earned by changing results would be worthless.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..core.cache import ScheduleCache, global_schedule_cache
from ..core.registry import GENERALIZED_ALGORITHMS, info
from ..errors import ReproError
from ..obs import OBS
from ..parallel import _available_cpus, resolve_jobs
from ..selection.tuner import radix_grid
from ..simnet.machine import MachineSpec
from ..simnet.machines import by_name, get as machine_by_name
from ..simnet.simulate import simulate
from .sweep import SweepPoint, clear_sim_memo, run_sweep, simulate_point

__all__ = [
    "full_sweep_points",
    "run_perf",
    "check_regression",
    "write_report",
    "load_report",
]

SCHEMA_VERSION = 7

# Serve-tier configuration (schema v7): the tuning service's gates.
# The grid is deliberately small — the tier times *service* economics
# (coalescing, prior warm-starts), not the sweep itself — but big
# enough that one cold sweep dwarfs 8 HTTP round-trips, so the 1.2x
# coalescing ceiling measures sharing, not socket noise.
_SERVE_P = 8
_SERVE_SIZES = (1 << 10, 1 << 12, 1 << 14, 1 << 16)
_SERVE_COLLECTIVES = ("allreduce",)
_SERVE_CLIENTS = 8
_SERVE_COALESCE_MAX_RATIO = 1.2
_SERVE_WARM_MIN_SPEEDUP = 2.0
_SERVE_COALESCE_ATTEMPTS = 3

# Adapt-tier configuration (schema v6): the online-selection loop's
# gates.  The convergence bound is deliberately looser than the golden
# test's pinned value (1 round on the flap scenario) — the gate rejects
# a broken selector, the golden rejects any behavior drift.
_ADAPT_NBYTES = 1 << 16
_ADAPT_MAX_TIME_TO_ADAPT = 4

# Default measurement configuration. Smoke mode trims the grid so CI can
# afford the run; the metrics keep the same shape either way.
_FULL_SIZES = [1 << i for i in range(3, 21, 2)]
_SMOKE_SIZES = [1 << i for i in range(6, 18, 4)]

# Scale-tier configuration (schema v5): the exascale regime the class-
# collapsed engine exists for.  The p=4096 sweep must finish inside the
# wall-clock budget; the sublinear probe rides the lazy generator
# schedules up to p=2^20 where per-rank materialization is unthinkable.
_SCALE_P = 4096
_SCALE_SMALL_P = 16
_SCALE_BUDGET_S = 180.0
_SCALE_SMOKE_BUDGET_S = 120.0
_SCALE_KS = (2, 8, 64)
_SCALE_SMOKE_KS = (2, 8)
_SCALE_SIZES = (1 << 12, 1 << 16)
_SCALE_SMOKE_SIZES = (1 << 16,)
_SCALE_SUBLINEAR_PS = (1 << 10, 1 << 14, 1 << 17, 1 << 20)
#: Ceiling on wall-clock growth across _SCALE_SUBLINEAR_PS.  The
#: collapsed engine's per-event batch op is a NumPy vector over class
#: members, so wall clock grows like p·log p with a tiny constant
#: (measured ~100x for the 1024x rank span, ~65 ms at p=2^20) instead
#: of the scalar DES's per-message cost (which would put p=2^20 in the
#: hours).  The gate at 256 leaves room for host noise while still
#: rejecting anything that degenerates to linear-in-p scaling (1024x).
_SCALE_SUBLINEAR_MAX_RATIO = 256.0

#: (collective, algorithm) pairs whose *materialized* footprint at
#: p=_SCALE_P is unaffordable for the serial DES, with the measured
#: reason.  Every exclusion is recorded in the report — the sweep never
#: silently narrows its grid.  The allgather collectives stay covered at
#: scale through the lazy ring generator points the sweep adds instead.
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


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def full_sweep_points(
    machine: MachineSpec, sizes: Sequence[int]
) -> List[SweepPoint]:
    """The benchmark's sweep workload, mirroring the paper's experiments.

    Every generalized algorithm over the standard radix grid × ``sizes``
    (the Fig. 8 surfaces), followed by the same grid again (the Fig. 9
    best-candidate search re-simulates exactly the points the surfaces
    already timed).  The duplication is the point: it is the redundancy
    the schedule cache and simulation memo exist to exploit.
    """
    points: List[SweepPoint] = []
    for coll, alg in GENERALIZED_ALGORITHMS:
        entry = info(coll, alg)
        for k in radix_grid(machine.nranks, min_k=entry.min_k):
            for nbytes in sizes:
                points.append(SweepPoint(coll, alg, nbytes, k=k, root=0))
    return points + points


def _bench_schedule_build(machine: MachineSpec, repeats: int) -> Dict:
    """Cold builder call vs. cache hit for one representative schedule."""
    coll, alg = "allreduce", "recursive_multiplying"
    entry = info(coll, alg)
    p, k = machine.nranks, 2

    cold_s = _best_of(lambda: entry.build(p, k=k, root=0), repeats)

    cache = ScheduleCache()
    cache.get_or_build(coll, alg, p, k=k, root=0)  # warm
    cached_s = _best_of(
        lambda: cache.get_or_build(coll, alg, p, k=k, root=0), repeats
    )
    return {
        "collective": coll,
        "algorithm": alg,
        "p": p,
        "k": k,
        "repeats": repeats,
        "cold_us": cold_s * 1e6,
        "cached_us": cached_s * 1e6,
        "speedup": cold_s / cached_s if cached_s > 0 else float("inf"),
    }


def _bench_single_sim(machine: MachineSpec, repeats: int) -> Dict:
    """One cold simulation vs. the sweep engine's memoized replay."""
    point = SweepPoint("allreduce", "recursive_multiplying", 1 << 16, k=2)
    entry = info(point.collective, point.algorithm)
    schedule = entry.build(machine.nranks, k=point.k, root=0)

    cold_s = _best_of(
        lambda: simulate(schedule, machine, point.nbytes), repeats
    )

    clear_sim_memo()
    simulate_point(machine, point)  # warm the memo
    memo_s = _best_of(lambda: simulate_point(machine, point), repeats)
    return {
        "collective": point.collective,
        "algorithm": point.algorithm,
        "p": machine.nranks,
        "k": point.k,
        "nbytes": point.nbytes,
        "repeats": repeats,
        "cold_us": cold_s * 1e6,
        "memo_us": memo_s * 1e6,
        "speedup": cold_s / memo_s if memo_s > 0 else float("inf"),
    }


def _bench_full_sweep(
    machine: MachineSpec, sizes: Sequence[int], jobs_levels: Sequence[int]
) -> Dict:
    """Cold-path vs. cached-path wall clock for the combined workload."""
    points = full_sweep_points(machine, sizes)

    t0 = time.perf_counter()
    before = run_sweep(points, machine, reuse=False)
    before_s = time.perf_counter() - t0

    clear_sim_memo()
    global_schedule_cache().clear()
    t0 = time.perf_counter()
    after = run_sweep(points, machine, reuse=True)
    after_s = time.perf_counter() - t0

    if [r.time for r in before] != [r.time for r in after]:
        raise ReproError(
            "perf bench integrity check failed: cached sweep results "
            "differ from the cold path"
        )

    n = len(points)
    build_hits = sum(1 for r in after if r.cache_hit)
    sim_hits = sum(1 for r in after if r.sim_hit)
    report = {
        "points": n,
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s if after_s > 0 else float("inf"),
        "build_hit_rate": build_hits / n,
        "sim_memo_rate": sim_hits / n,
        "results_identical": True,
        "jobs": {},
    }
    for jobs in jobs_levels:
        clear_sim_memo()
        global_schedule_cache().clear()
        t0 = time.perf_counter()
        run_sweep(points, machine, jobs=jobs, reuse=True)
        wall = time.perf_counter() - t0
        report["jobs"][str(jobs)] = {
            "wall_s": wall,
            "effective_jobs": resolve_jobs(jobs),
            "speedup_vs_before": before_s / wall if wall > 0 else float("inf"),
        }
    return report


def _bench_obs_overhead(machine: MachineSpec, sizes: Sequence[int]) -> Dict:
    """Cached-path sweep with instrumentation off vs. fully on.

    The off timing re-measures the same workload as the full-sweep tier,
    immediately before the on timing, so the two differ only by the
    :mod:`repro.obs` layer.  Results must stay bit-identical — the
    observability contract is that instrumentation never changes what is
    computed, only what is recorded.  The enabled run's metrics are left
    in the (disabled) global scope so ``repro-bench-perf --metrics-out``
    can dump them.
    """
    points = full_sweep_points(machine, sizes)

    clear_sim_memo()
    global_schedule_cache().clear()
    t0 = time.perf_counter()
    off = run_sweep(points, machine, reuse=True)
    off_s = time.perf_counter() - t0

    clear_sim_memo()
    global_schedule_cache().clear()
    OBS.reset()
    OBS.enable()
    try:
        t0 = time.perf_counter()
        on = run_sweep(points, machine, reuse=True)
        on_s = time.perf_counter() - t0
    finally:
        OBS.disable()  # deliberately no reset: see docstring

    if [r.time for r in off] != [r.time for r in on]:
        raise ReproError(
            "obs overhead integrity check failed: instrumented sweep "
            "results differ from the uninstrumented path"
        )
    return {
        "points": len(points),
        "off_s": off_s,
        "on_s": on_s,
        "overhead_ratio": on_s / off_s if off_s > 0 else float("inf"),
        "results_identical": True,
        "spans": len(OBS.tracer.spans()),
    }


def _bench_recovery_overhead(machine: MachineSpec, repeats: int) -> Dict:
    """Plain simulation vs. the recovery wrapper with nothing to heal.

    The self-healing layer must be pay-for-what-you-break: wrapping a
    fault-free simulation in :func:`repro.recovery.simulate_with_recovery`
    runs exactly one round whose simulated time equals the plain path's
    bit for bit, and whose wall-clock cost stays within the same small
    multiple the observability layer is held to.  This tier pins both.
    """
    from ..recovery import simulate_with_recovery

    coll, alg, k, nbytes = "allreduce", "recursive_multiplying", 2, 1 << 16
    entry = info(coll, alg)
    schedule = entry.build(machine.nranks, k=k, root=0)

    plain = simulate(schedule, machine, nbytes)
    plain_s = _best_of(lambda: simulate(schedule, machine, nbytes), repeats)

    wrapped = simulate_with_recovery(
        coll, alg, machine, nbytes, k=k, recovery="shrink"
    )  # warm the wrapper's schedule cache before timing
    wrapped_s = _best_of(
        lambda: simulate_with_recovery(
            coll, alg, machine, nbytes, k=k, recovery="shrink"
        ),
        repeats,
    )
    identical = wrapped.rounds == 1 and wrapped.time == plain.time
    if not identical:
        raise ReproError(
            "recovery overhead integrity check failed: the fault-free "
            "recovery wrapper changed the simulated result"
        )
    return {
        "collective": coll,
        "algorithm": alg,
        "p": machine.nranks,
        "k": k,
        "nbytes": nbytes,
        "repeats": repeats,
        "plain_us": plain_s * 1e6,
        "wrapped_us": wrapped_s * 1e6,
        "overhead_ratio": wrapped_s / plain_s if plain_s > 0 else float("inf"),
        "results_identical": identical,
    }


def _bench_durability(machine: MachineSpec, sizes: Sequence[int]) -> Dict:
    """The durability layer's two promises, measured.

    First: journaling every completed point and serving schedule builds
    from a disk store must cost almost nothing on the cached full sweep
    in steady state (the gate is 5%) — durability that taxes the fast
    path would just be turned off.  The store's one-time population cost
    (pickling and checksumming every built schedule) is deliberately
    timed apart as ``populate_s``: it is the capital the warm start
    repays, not a recurring tax.  Second: a fresh process warm-starting
    from the populated store must acquire the grid's schedules faster
    than a cold process building them — the store has to pay for
    itself, or it is dead weight.  Every durable sweep must stay
    bit-identical to the plain path, the same contract every other tier
    enforces.
    """
    import shutil
    import tempfile

    from ..store import open_schedule_store
    from ..store.journal import JournalWriter
    from .sweep import _result_record as _sweep_result_record

    points = full_sweep_points(machine, sizes)
    plain: List = []
    durable: List = []

    tmp = Path(tempfile.mkdtemp(prefix="repro-durability-"))
    try:
        journal_path = tmp / "sweep.jsonl"
        store_root = tmp / "store"
        # Population pass: every unique schedule is built once and
        # written through (pickle + checksum + atomic publish).
        clear_sim_memo()
        global_schedule_cache().clear()
        t0 = time.perf_counter()
        run_sweep(
            points, machine, reuse=True,
            journal=journal_path, store=store_root,
        )
        populate_s = time.perf_counter() - t0

        # Each rep starts from cold in-process caches so every rep
        # times the same work; the durable reps run against the
        # now-populated store — steady state, where the disk tier
        # *serves* builds instead of writing them.
        def run_plain() -> None:
            clear_sim_memo()
            global_schedule_cache().clear()
            plain[:] = run_sweep(points, machine, reuse=True)

        def run_durable() -> None:
            clear_sim_memo()
            durable[:] = run_sweep(
                points, machine, reuse=True,
                journal=journal_path, store=store_root,
            )

        # Whole-sweep timing is taken as the median of *paired* reps
        # (plain and durable back-to-back, so host drift cancels).  It
        # demonstrates the durable path end-to-end and bounds
        # catastrophic per-record regressions — an accidental fsync per
        # record would double it — but on a shared 1-CPU host a ~2s
        # sweep jitters ±10%, which can never resolve the few-percent
        # promise the 5% gate makes.  The gated overhead is therefore
        # *component-derived* below: per-record journal cost and the
        # store's serve-vs-build delta are stable microsecond-scale
        # measurements, scaled by the sweep's actual counts.
        plain_s = float("inf")
        durable_s = float("inf")
        ratios: List[float] = []
        for _ in range(3):
            rep_plain = _best_of(run_plain, 1)
            rep_durable = _best_of(run_durable, 1)
            plain_s = min(plain_s, rep_plain)
            durable_s = min(durable_s, rep_durable)
            ratios.append(
                rep_durable / rep_plain if rep_plain > 0 else float("inf")
            )
        ratio = statistics.median(ratios)

        if [r.time for r in plain] != [r.time for r in durable]:
            raise ReproError(
                "durability integrity check failed: journaled/stored "
                "sweep results differ from the plain cached path"
            )

        # Warm-start value: schedule acquisition for the grid's unique
        # keys, cold (a fresh in-process cache, every build run) vs warm
        # (a fresh process-equivalent cache over the store the durable
        # sweep just populated).  Best-of-2 on both sides — these are
        # ~100ms loops where one scheduler hiccup would dominate.
        unique = sorted(
            {(pt.collective, pt.algorithm, pt.k) for pt in points}
        )

        def acquire_cold() -> None:
            cache = ScheduleCache()
            for coll, alg, k in unique:
                cache.get_or_build(coll, alg, machine.nranks, k=k, root=0)

        def acquire_warm() -> None:
            cache = open_schedule_store(store_root)
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

        # Component-derived overhead, the gated number: what the
        # durable sweep does that the plain sweep does not is (a) one
        # journal append per point and (b) serving its schedules from
        # the disk tier (warm_s) instead of the builder (cold_s).  Each
        # piece is measured over enough iterations to be stable to well
        # under 1%, then scaled by the sweep's actual counts against
        # the plain wall clock.
        probe_rec = _sweep_result_record(plain[0])
        probes = 1000
        t0 = time.perf_counter()
        with JournalWriter(tmp / "probe.jsonl", truncate=True) as probe:
            for _ in range(probes):
                probe.append(probe_rec)
        append_s = (time.perf_counter() - t0) / probes
        journal_s = append_s * (len(points) + 1)  # +1: the header record
        component_ratio = (
            (plain_s + journal_s + warm_s - cold_s) / plain_s
            if plain_s > 0
            else float("inf")
        )

        journal_lines = sum(
            1 for line in journal_path.read_text().splitlines() if line
        )
        store_entries = len(open_schedule_store(store_root).store)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "points": len(points),
        "plain_s": plain_s,
        "populate_s": populate_s,
        "durable_s": durable_s,
        "overhead_ratio": component_ratio,
        "end_to_end_ratio": ratio,
        "journal_append_us": append_s * 1e6,
        "journal_records": journal_lines,
        "store_entries": store_entries,
        "schedules": len(unique),
        "cold_acquire_s": cold_s,
        "warm_acquire_s": warm_s,
        "warm_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "results_identical": True,
    }


def _bench_scale(smoke: bool) -> Dict:
    """The scale tier: the class-collapsed engine at paper-scale p.

    Three promises, all raised on violation rather than merely reported:

    * **bit-identity** — on the p=16 grid (every generalized algorithm ×
      radix grid × two sizes) the collapsed engine's full result (time
      and every per-rank finish time) equals the materialized engine's
      exactly;
    * **budget** — the p=4096 acceptance-grid sweep (butterfly
      algorithms materialized-or-collapsed under ``engine="auto"``, the
      ring family through the lazy generator schedules) completes under
      a wall-clock budget, with zero point errors;
    * **sublinearity** — lazy recursive-doubling allreduce from p=2^10
      to p=2^20 stays one equivalence class, and wall clock grows with
      the event count (log p), not with p.

    Configurations whose *materialized* footprint is unaffordable at
    p=4096 (k-ring's O(p^2/k) builder, allgather's and recursive-
    multiplying bcast's Theta(p^2) block transfers, recursive
    multiplying beyond k=8) are excluded via :data:`_SCALE_EXCLUSIONS` /
    :data:`_SCALE_RM_MAX_K` and *recorded in the report* — the grid
    never narrows silently, and the allgather collectives stay covered
    at scale through the lazy ring points.
    """
    from ..simnet.machines import reference
    from ..simnet.simulate import simulate as _simulate

    # --- bit-identity on the small-p grid --------------------------------
    small = reference(_SCALE_SMALL_P)
    small_points = 0
    for coll, alg in GENERALIZED_ALGORITHMS:
        entry = info(coll, alg)
        for k in radix_grid(_SCALE_SMALL_P, min_k=entry.min_k):
            schedule = entry.build(_SCALE_SMALL_P, k=k, root=0)
            for nbytes in (1 << 10, 1 << 16):
                mat = _simulate(schedule, small, nbytes,
                                engine="materialized")
                col = _simulate(schedule, small, nbytes, engine="collapsed")
                small_points += 1
                if col.fallback is None and (
                    col.time != mat.time
                    or list(col.rank_times) != list(mat.rank_times)
                ):
                    raise ReproError(
                        f"scale tier bit-identity check failed: "
                        f"{coll}/{alg} k={k} n={nbytes} at "
                        f"p={_SCALE_SMALL_P} diverged between engines"
                    )

    # --- the p=4096 acceptance-grid sweep under budget -------------------
    budget_s = _SCALE_SMOKE_BUDGET_S if smoke else _SCALE_BUDGET_S
    ks = _SCALE_SMOKE_KS if smoke else _SCALE_KS
    sizes = _SCALE_SMOKE_SIZES if smoke else _SCALE_SIZES
    machine = reference(_SCALE_P)
    points: List[SweepPoint] = []
    excluded: List[Dict] = []
    lazy_families = (
        ("allgather", "ring"),
        ("reduce_scatter", "ring"),
        ("allreduce", "ring"),
        ("allreduce", "recursive_doubling"),
    )
    for coll, alg in GENERALIZED_ALGORITHMS:
        reason = _SCALE_EXCLUSIONS.get((coll, alg))
        if reason is not None:
            excluded.append(
                {"collective": coll, "algorithm": alg, "reason": reason}
            )
            continue
        entry = info(coll, alg)
        seen = set()
        for k in ks:
            kk = max(k, entry.min_k)
            if alg == "recursive_multiplying" and kk > _SCALE_RM_MAX_K:
                excluded.append({
                    "collective": coll,
                    "algorithm": alg,
                    "k": kk,
                    "reason": (
                        f"k={kk} posts {kk - 1} concurrent sends per "
                        "rank per step at p=4096 (>60 s/point on the "
                        "serial DES)"
                    ),
                })
                continue
            if kk in seen:
                continue
            seen.add(kk)
            for nbytes in sizes:
                points.append(SweepPoint(coll, alg, nbytes, k=kk, root=0))
    lazy_points = 0
    for coll, alg in lazy_families:
        for nbytes in sizes:
            points.append(SweepPoint(coll, alg, nbytes, k=None, root=0))
            lazy_points += 1

    clear_sim_memo()
    global_schedule_cache().clear()
    t0 = time.perf_counter()
    results = run_sweep(points, machine, engine="auto")
    wall_s = time.perf_counter() - t0
    errors = [r for r in results if r.error is not None]
    if errors:
        first = errors[0]
        raise ReproError(
            f"scale tier p={_SCALE_P} sweep: {len(errors)} point(s) "
            f"failed, first: {first.point.collective}/"
            f"{first.point.algorithm} k={first.point.k}: {first.error}"
        )

    # --- sublinearity up to p=10^6 ---------------------------------------
    from ..core.lazy import lookup

    sublinear: List[Dict] = []
    for p in _SCALE_SUBLINEAR_PS:
        lazy = lookup("allreduce", "recursive_doubling", p)
        if lazy is None:
            raise ReproError(
                f"scale tier expected a lazy recursive-doubling "
                f"allreduce at p={p}"
            )
        t0 = time.perf_counter()
        res = _simulate(lazy, reference(p), 1 << 16, engine="collapsed")
        probe_wall = time.perf_counter() - t0
        if res.engine != "collapsed" or res.nclasses != 1:
            raise ReproError(
                f"scale tier sublinearity probe at p={p} did not "
                f"collapse to one class (engine={res.engine}, "
                f"nclasses={res.nclasses}, fallback={res.fallback})"
            )
        sublinear.append({
            "p": p,
            "wall_ms": probe_wall * 1e3,
            "nclasses": res.nclasses,
            "messages": res.messages,
            "time_us": res.time * 1e6,
        })
    wall_ratio = (
        sublinear[-1]["wall_ms"] / sublinear[0]["wall_ms"]
        if sublinear[0]["wall_ms"] > 0
        else float("inf")
    )
    p_ratio = _SCALE_SUBLINEAR_PS[-1] / _SCALE_SUBLINEAR_PS[0]

    return {
        "small_p": {
            "p": _SCALE_SMALL_P,
            "points": small_points,
            "results_identical": True,
        },
        "sweep": {
            "p": _SCALE_P,
            "points": len(points),
            "lazy_points": lazy_points,
            "wall_s": wall_s,
            "budget_s": budget_s,
            "within_budget": wall_s <= budget_s,
            "errors": 0,
            "excluded": excluded,
        },
        "sublinear": {
            "probes": sublinear,
            "wall_ratio": wall_ratio,
            "p_ratio": p_ratio,
            "max_ratio": _SCALE_SUBLINEAR_MAX_RATIO,
        },
    }


def _bench_adapt(machine: MachineSpec, smoke: bool) -> Dict:
    """The adapt tier: the online-selection loop's three promises.

    * **adaptive-off bit-identity** — on the ``calm`` scenario (no
      drift) the loop must never switch, accrue exactly zero regret,
      and every round's observed time must equal a plain
      :func:`~repro.simnet.simulate.simulate` of the static healthy
      winner bit for bit — the adapt machinery may not perturb a single
      simulated number when there is nothing to adapt to (and with
      ``adapt=None`` none of it runs at all);
    * **regret bound** — on the ``flap`` scenario the loop's cumulative
      regret vs. the per-round oracle must stay strictly below the
      static-selection baseline's, and the selector must converge to
      the oracle's post-change winner within
      :data:`_ADAPT_MAX_TIME_TO_ADAPT` rounds of every phase change;
    * **jobs invariance** — the whole trail re-run at ``jobs=2`` must
      be bit-identical (inherited from the sweep engine's determinism).

    Violations of the off-identity raise immediately (a perf number
    earned by perturbing results is worthless); the regret and
    invariance verdicts are gated by :func:`check_regression`.
    """
    from ..adapt.loop import run_adaptive
    from ..adapt.scenarios import get_scenario
    from .adapt import run_adapt_bench

    calm = get_scenario("calm", machine.nranks)
    t0 = time.perf_counter()
    off = run_adaptive(
        "allreduce", machine, _ADAPT_NBYTES, rounds=calm.rounds
    )
    off_wall = time.perf_counter() - t0
    entry = info("allreduce", off.static_algorithm)
    static = entry.build(machine.nranks, k=off.static_k, root=0)
    plain = simulate(static, machine, _ADAPT_NBYTES)
    off_identical = (
        off.switches == 0
        and off.regret == 0.0
        and all(r.time == plain.time for r in off.records)
    )
    if not off_identical:
        raise ReproError(
            "adapt tier integrity check failed: the no-drift adaptive "
            "loop diverged from plain simulation of the static winner"
        )

    t0 = time.perf_counter()
    flap = run_adapt_bench(
        machine,
        collective="allreduce",
        nbytes=_ADAPT_NBYTES,
        scenario="flap",
        check_jobs=2,
    )
    flap_wall = time.perf_counter() - t0
    return {
        "nbytes": _ADAPT_NBYTES,
        "max_time_to_adapt_allowed": _ADAPT_MAX_TIME_TO_ADAPT,
        "off": {
            "scenario": "calm",
            "rounds": len(off.records),
            "switches": off.switches,
            "regret": off.regret,
            "bit_identical": off_identical,
            "wall_s": off_wall,
        },
        "flap": flap,
        "flap_wall_s": flap_wall,
    }


def _bench_serve(smoke: bool) -> Dict:
    """The serve tier: the tuning service's three promises, measured.

    * **bit-identity** — every ``/select`` answer and the exported
      ``/config`` document must equal what an in-process
      :func:`repro.server.build_config` tune of the same grid produces,
      byte for byte (raised on violation — a service that answers
      differently than the library is not a cache, it is a fork);
    * **coalescing** — :data:`_SERVE_CLIENTS` concurrent ``POST /tune``
      requests for the same cold sweep must share one leader (exactly
      one ``sweeps_run`` increment) and finish within
      :data:`_SERVE_COALESCE_MAX_RATIO` of a single cold tune's wall
      clock — N clients must pay for one sweep, not N;
    * **warm start** — a tune warm-started from a committed
      selection-config's :meth:`~repro.server.SelectionConfig.
      sweep_priors` must beat the cold tune by at least
      :data:`_SERVE_WARM_MIN_SPEEDUP` while producing a bit-identical
      artifact (the priors replay recorded timings instead of
      simulating, so speed is the only thing allowed to change).

    The coalescing measurement clears the simulation memo first so the
    leader runs a real sweep, and retries (each attempt re-cleared) if
    a follower ever lands after the leader already finished — the same
    race discipline the smoke driver uses.
    """
    import concurrent.futures

    from ..server import TuningClient, build_config, serve_background
    from ..simnet.machines import reference

    machine = reference(_SERVE_P)
    sizes = list(_SERVE_SIZES)

    clear_sim_memo()
    global_schedule_cache().clear()
    t0 = time.perf_counter()
    direct = build_config(machine, sizes, collectives=_SERVE_COLLECTIVES)
    cold_s = time.perf_counter() - t0

    clear_sim_memo()
    global_schedule_cache().clear()
    t0 = time.perf_counter()
    warm = build_config(
        machine, sizes, collectives=_SERVE_COLLECTIVES,
        priors=direct.sweep_priors(),
    )
    warm_s = time.perf_counter() - t0
    if warm.to_json() != direct.to_json():
        raise ReproError(
            "serve tier integrity check failed: the prior-warmed tune "
            "diverged from the cold tune"
        )

    with serve_background(
        machine, sizes, collectives=_SERVE_COLLECTIVES
    ) as handle:
        client = TuningClient(handle.url)
        selections_identical = all(
            client.select("allreduce", machine.nranks, nbytes)
            == direct.select("allreduce", machine.nranks, nbytes)
            for nbytes in sizes
        )
        config_identical = client.config_text() == direct.to_json()
        if not (selections_identical and config_identical):
            raise ReproError(
                "serve tier integrity check failed: served selections "
                "or the exported config diverged from the in-process tune"
            )

        swept = joined = 0
        single_s = coalesced_wall_s = float("inf")
        attempts = 0
        for attempts in range(1, _SERVE_COALESCE_ATTEMPTS + 1):
            clear_sim_memo()
            t0 = time.perf_counter()
            client.tune("allreduce")
            single_s = time.perf_counter() - t0

            before = client.info()
            clear_sim_memo()
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=_SERVE_CLIENTS
            ) as pool:
                t0 = time.perf_counter()
                futures = [
                    pool.submit(client.tune, "allreduce")
                    for _ in range(_SERVE_CLIENTS)
                ]
                outcomes = [f.result()["outcome"] for f in futures]
                coalesced_wall_s = time.perf_counter() - t0
            after = client.info()
            swept = after["sweeps_run"] - before["sweeps_run"]
            joined = after["coalesced"] - before["coalesced"]
            if swept == 1 and outcomes.count("swept") == 1:
                break

    return {
        "p": machine.nranks,
        "sizes": sizes,
        "collectives": list(_SERVE_COLLECTIVES),
        "clients": _SERVE_CLIENTS,
        "cold_tune_s": cold_s,
        "warm_tune_s": warm_s,
        "warm_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "warm_identical": True,
        "selections_identical": selections_identical,
        "config_identical": config_identical,
        "single_tune_s": single_s,
        "coalesced_wall_s": coalesced_wall_s,
        "coalesce_ratio": (
            coalesced_wall_s / single_s if single_s > 0 else float("inf")
        ),
        "sweeps_run": swept,
        "coalesced": joined,
        "coalesce_attempts": attempts,
    }


def run_perf(
    *,
    machine_name: str = "frontier",
    nodes: int = 16,
    ppn: int = 1,
    smoke: bool = False,
    jobs_levels: Sequence[int] = (4,),
) -> Dict:
    """Run every tier and return the report as a plain dict.

    ``machine_name`` is a base name (``frontier``/``polaris``/
    ``reference``, combined with ``nodes``/``ppn``) or a self-contained
    registry name like ``dragonfly-1024`` (which pins its own geometry).
    """
    if "-" in machine_name:
        machine = machine_by_name(machine_name)
    else:
        machine = by_name(machine_name, nodes, ppn)
    sizes = _SMOKE_SIZES if smoke else _FULL_SIZES
    repeats = 3 if smoke else 5
    report = {
        "schema": SCHEMA_VERSION,
        "meta": {
            "machine": machine_name,
            "nodes": nodes,
            "ppn": ppn,
            "nranks": machine.nranks,
            "sizes": list(sizes),
            "smoke": smoke,
            "python": platform.python_version(),
            "cpus_available": _available_cpus(),
        },
        "schedule_build": _bench_schedule_build(machine, repeats * 20),
        "single_sim": _bench_single_sim(machine, repeats),
        "full_sweep": _bench_full_sweep(machine, sizes, jobs_levels),
        "recovery": _bench_recovery_overhead(machine, repeats),
        "obs": _bench_obs_overhead(machine, sizes),
        "durability": _bench_durability(machine, sizes),
        "scale": _bench_scale(smoke),
        "adapt": _bench_adapt(machine, smoke),
        "serve": _bench_serve(smoke),
    }
    return report


def check_regression(
    current: Dict, baseline: Dict, *, factor: float = 2.0,
    obs_factor: float = 1.05,
) -> List[str]:
    """Compare a fresh report against the committed baseline.

    Returns a list of human-readable failures (empty when clean).  Only
    schedule-build timings are gated — they are the most host-stable
    metric, and ``factor`` leaves headroom for CI-runner variance.  The
    full-sweep speedup is additionally required not to collapse below
    1.0 (the caches must never make the sweep *slower* than the cold
    path).

    The observability layer gets its own, much tighter gate: when the
    two reports timed the same workload, the instrumentation-*disabled*
    sweep must stay within ``obs_factor`` (default 5%) of the committed
    baseline's disabled sweep; enabled instrumentation must never slow
    the sweep beyond 2x; and the instrumented path must have produced
    bit-identical results.  Reports predating the ``obs`` section
    (schema 1) skip the obs gate rather than failing on a missing key.
    """
    failures: List[str] = []
    for metric in ("cold_us", "cached_us"):
        base = baseline["schedule_build"][metric]
        cur = current["schedule_build"][metric]
        if base > 0 and cur > base * factor:
            failures.append(
                f"schedule build {metric} regressed {cur / base:.2f}x "
                f"({base:.1f}us -> {cur:.1f}us, allowed {factor:.1f}x)"
            )
    sweep = current["full_sweep"]
    if sweep["speedup"] < 1.0:
        failures.append(
            f"full-sweep cached path is slower than the cold path "
            f"({sweep['speedup']:.2f}x)"
        )
    if not sweep.get("results_identical", False):
        failures.append("cached sweep results diverged from the cold path")
    recovery = current.get("recovery")
    if recovery is not None:
        # Same skip-if-absent pattern as the obs section: older baselines
        # without a "recovery" section gate only the current report's own
        # invariants (result identity and the overhead ceiling).
        if not recovery.get("results_identical", False):
            failures.append(
                "fault-free recovery wrapper changed the simulated result"
            )
        if recovery.get("overhead_ratio", 1.0) > 2.0:
            failures.append(
                f"fault-free recovery wrapper slows simulation "
                f"{recovery['overhead_ratio']:.2f}x (allowed 2.0x)"
            )
    durability = current.get("durability")
    if durability is not None:
        # Self-relative gates (ratios within one report), so host speed
        # cancels out: durability must never tax the cached sweep beyond
        # 5%, and a warm start must beat the cold in-process run — a
        # store slower than the builder it bypasses is dead weight.
        if not durability.get("results_identical", False):
            failures.append(
                "journaled/stored sweep results diverged from the plain "
                "cached path"
            )
        # The gated overhead is component-derived (per-record journal
        # cost + store serve-vs-build delta, scaled by the sweep's
        # actual counts) because it is stable to well under 1%; the
        # end-to-end paired ratio is too noisy on a shared host to
        # resolve 5%, so it only bounds catastrophic per-record
        # regressions (fsync-per-record territory).
        if durability.get("overhead_ratio", 1.0) > 1.05:
            failures.append(
                f"journal+store overhead on the cached sweep is "
                f"{durability['overhead_ratio']:.3f}x (allowed 1.05x)"
            )
        if durability.get("end_to_end_ratio", 1.0) > 1.25:
            failures.append(
                f"end-to-end durable sweep is "
                f"{durability['end_to_end_ratio']:.2f}x the plain sweep "
                f"(sanity bound 1.25x)"
            )
        if durability.get("warm_speedup", float("inf")) <= 1.0:
            failures.append(
                f"warm start from a populated store is not faster than "
                f"a cold in-process run "
                f"({durability['warm_speedup']:.2f}x)"
            )
    scale = current.get("scale")
    if scale is not None:
        # Skip-if-absent like the other late tiers (baselines predating
        # schema 5 have no scale section).  All three gates are
        # self-relative or absolute promises of the current report —
        # host speed only enters through the generous wall-clock budget.
        if not scale["small_p"].get("results_identical", False):
            failures.append(
                "collapsed engine diverged from the materialized engine "
                f"on the p={scale['small_p'].get('p')} identity grid"
            )
        sw = scale["sweep"]
        if not sw.get("within_budget", False):
            failures.append(
                f"p={sw.get('p')} scale sweep took {sw.get('wall_s', 0):.1f}s "
                f"(budget {sw.get('budget_s', 0):.0f}s)"
            )
        if sw.get("errors", 0):
            failures.append(
                f"p={sw.get('p')} scale sweep had {sw['errors']} point error(s)"
            )
        sub = scale["sublinear"]
        if any(pr.get("nclasses") != 1 for pr in sub.get("probes", [])):
            failures.append(
                "sublinear probe did not collapse to a single class at "
                "every p"
            )
        if sub.get("wall_ratio", float("inf")) > sub.get(
            "max_ratio", _SCALE_SUBLINEAR_MAX_RATIO
        ):
            failures.append(
                f"sublinear probe wall-clock grew {sub['wall_ratio']:.1f}x "
                f"over a {sub.get('p_ratio', 0):.0f}x rank-count span "
                f"(allowed {sub.get('max_ratio'):.0f}x — simulation cost "
                f"must track class count, not p)"
            )
    adapt = current.get("adapt")
    if adapt is not None:
        # Skip-if-absent like the other late tiers (baselines predating
        # schema 6 have no adapt section).  All gates are self-relative
        # promises of the current report — host speed never enters.
        off = adapt.get("off", {})
        if not off.get("bit_identical", False):
            failures.append(
                "no-drift adaptive loop diverged from plain simulation "
                "of the static winner"
            )
        if off.get("switches", 0):
            failures.append(
                f"no-drift adaptive loop switched "
                f"{off['switches']} time(s) (must be 0)"
            )
        flap = adapt.get("flap", {})
        if not flap.get("jobs_invariant", False):
            failures.append(
                "adaptive trail is not bit-identical across --jobs"
            )
        if not flap.get("adapted_all_changes", False):
            failures.append(
                "adaptive selector never matched the oracle's winner "
                "after at least one phase change"
            )
        ratio = flap.get("regret_ratio")
        if ratio is None or ratio >= 1.0:
            failures.append(
                f"adaptive regret is not strictly below the static "
                f"baseline (ratio {ratio})"
            )
        allowed = adapt.get(
            "max_time_to_adapt_allowed", _ADAPT_MAX_TIME_TO_ADAPT
        )
        tta = flap.get("max_time_to_adapt")
        if tta is None or tta > allowed:
            failures.append(
                f"time-to-adapt {tta} round(s) exceeds the allowed "
                f"{allowed}"
            )
    serve = current.get("serve")
    if serve is not None:
        # Skip-if-absent like the other late tiers (baselines predating
        # schema 7 have no serve section).  All gates are self-relative
        # ratios within the current report, so host speed cancels.
        for flag, what in (
            ("selections_identical", "served selections"),
            ("config_identical", "the exported /config document"),
            ("warm_identical", "the prior-warmed tune"),
        ):
            if not serve.get(flag, False):
                failures.append(
                    f"{what} diverged from the in-process cold tune"
                )
        if serve.get("sweeps_run", 0) != 1:
            failures.append(
                f"{serve.get('clients')} concurrent /tune requests ran "
                f"{serve.get('sweeps_run')} sweep(s) instead of "
                f"coalescing into 1"
            )
        ratio = serve.get("coalesce_ratio", float("inf"))
        if ratio > _SERVE_COALESCE_MAX_RATIO:
            failures.append(
                f"{serve.get('clients')} coalesced /tune requests took "
                f"{ratio:.2f}x a single tune's wall clock (allowed "
                f"{_SERVE_COALESCE_MAX_RATIO:.1f}x — N clients must pay "
                f"for one sweep)"
            )
        if serve.get("warm_speedup", 0.0) < _SERVE_WARM_MIN_SPEEDUP:
            failures.append(
                f"prior-warmed tune is only "
                f"{serve.get('warm_speedup', 0.0):.2f}x the cold tune "
                f"(required {_SERVE_WARM_MIN_SPEEDUP:.1f}x — committed "
                f"selection-config priors must make boot nearly free)"
            )
    obs = current.get("obs")
    base_obs = baseline.get("obs")
    if obs is not None:
        if not obs.get("results_identical", False):
            failures.append(
                "instrumented sweep results diverged from the "
                "uninstrumented path"
            )
        if obs.get("overhead_ratio", 1.0) > 2.0:
            failures.append(
                f"enabled instrumentation slows the sweep "
                f"{obs['overhead_ratio']:.2f}x (allowed 2.0x)"
            )
        # The tight wall-clock gate only makes sense when the two
        # reports timed the same workload (a --smoke run against the
        # committed full-grid baseline would compare different sweeps).
        comparable = (
            base_obs is not None
            and base_obs.get("off_s", 0) > 0
            and obs.get("points") == base_obs.get("points")
            and current["meta"].get("sizes") == baseline["meta"].get("sizes")
            and current["meta"].get("nranks") == baseline["meta"].get("nranks")
        )
        if comparable:
            ratio = obs["off_s"] / base_obs["off_s"]
            if ratio > obs_factor:
                failures.append(
                    f"instrumentation-disabled sweep regressed "
                    f"{ratio:.3f}x vs baseline "
                    f"({base_obs['off_s']:.2f}s -> {obs['off_s']:.2f}s, "
                    f"allowed {obs_factor:.2f}x)"
                )
    return failures


def write_report(report: Dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_report(path) -> Dict:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA_VERSION:
        raise ReproError(
            f"perf report {path} has schema {data.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    return data


def format_report(report: Dict) -> str:
    """Human-readable summary of one report."""
    meta = report["meta"]
    sb = report["schedule_build"]
    ss = report["single_sim"]
    fs = report["full_sweep"]
    lines = [
        f"perf report — {meta['machine']} nodes={meta['nodes']} "
        f"ppn={meta['ppn']} ({'smoke' if meta['smoke'] else 'full'}), "
        f"{meta['cpus_available']} cpu(s)",
        f"  schedule build : cold {sb['cold_us']:9.1f} us | cached "
        f"{sb['cached_us']:7.1f} us | {sb['speedup']:7.1f}x",
        f"  single sim     : cold {ss['cold_us']:9.1f} us | memo   "
        f"{ss['memo_us']:7.1f} us | {ss['speedup']:7.1f}x",
        f"  full sweep     : before {fs['before_s']:6.2f} s | after "
        f"{fs['after_s']:6.2f} s | {fs['speedup']:5.2f}x "
        f"({fs['points']} points, build hits {fs['build_hit_rate']:.0%}, "
        f"sim memo {fs['sim_memo_rate']:.0%})",
    ]
    for jobs, row in sorted(fs["jobs"].items(), key=lambda kv: int(kv[0])):
        lines.append(
            f"  --jobs {jobs:>2}      : {row['wall_s']:6.2f} s "
            f"({row['speedup_vs_before']:.2f}x vs cold, effective "
            f"workers {row['effective_jobs']})"
        )
    rec = report.get("recovery")
    if rec is not None:
        lines.append(
            f"  recovery wrap  : plain {rec['plain_us']:7.1f} us | wrapped "
            f"{rec['wrapped_us']:7.1f} us | {rec['overhead_ratio']:5.2f}x "
            f"(fault-free, results identical: {rec['results_identical']})"
        )
    obs = report.get("obs")
    if obs is not None:
        lines.append(
            f"  obs overhead   : off {obs['off_s']:8.2f} s | on     "
            f"{obs['on_s']:6.2f} s | {obs['overhead_ratio']:5.2f}x "
            f"({obs['spans']} spans, results identical: "
            f"{obs['results_identical']})"
        )
    dur = report.get("durability")
    if dur is not None:
        lines.append(
            f"  durability     : plain {dur['plain_s']:6.2f} s | durable "
            f"{dur['durable_s']:5.2f} s | {dur['overhead_ratio']:5.3f}x "
            f"overhead ({dur['journal_append_us']:.0f} us/append, "
            f"{dur['journal_records']} journal records, "
            f"{dur['store_entries']} store entries, populate "
            f"{dur['populate_s']:.2f} s)"
        )
        lines.append(
            f"  warm start     : cold {dur['cold_acquire_s'] * 1e3:7.1f} ms "
            f"| warm {dur['warm_acquire_s'] * 1e3:8.1f} ms | "
            f"{dur['warm_speedup']:5.2f}x "
            f"({dur['schedules']} schedules, results identical: "
            f"{dur['results_identical']})"
        )
    adapt = report.get("adapt")
    if adapt is not None:
        off, flap = adapt["off"], adapt["flap"]
        lines.append(
            f"  adapt off      : {off['scenario']} rounds={off['rounds']}, "
            f"switches={off['switches']}, regret {off['regret']:.2e}s, "
            f"bit-identical: {off['bit_identical']}"
        )
        ratio = flap.get("regret_ratio")
        ratio_str = f"{ratio:.2f}x" if ratio is not None else "n/a"
        lines.append(
            f"  adapt flap     : regret {flap['regret'] * 1e6:7.1f} us | "
            f"static {flap['static_regret'] * 1e6:7.1f} us | {ratio_str} "
            f"(max time-to-adapt {flap['max_time_to_adapt']} round(s), "
            f"{flap['switches']} switch(es), jobs-invariant: "
            f"{flap['jobs_invariant']})"
        )
    serve = report.get("serve")
    if serve is not None:
        lines.append(
            f"  serve tune     : cold {serve['cold_tune_s']:6.2f} s | warm "
            f"{serve['warm_tune_s']:6.3f} s | {serve['warm_speedup']:5.1f}x "
            f"(selections identical: {serve['selections_identical']}, "
            f"config identical: {serve['config_identical']})"
        )
        lines.append(
            f"  serve coalesce : single {serve['single_tune_s']:5.2f} s | "
            f"{serve['clients']} clients {serve['coalesced_wall_s']:5.2f} s "
            f"| {serve['coalesce_ratio']:4.2f}x "
            f"({serve['sweeps_run']} swept, {serve['coalesced']} coalesced)"
        )
    scale = report.get("scale")
    if scale is not None:
        sp, sw, sub = scale["small_p"], scale["sweep"], scale["sublinear"]
        lines.append(
            f"  scale identity : p={sp['p']} grid, {sp['points']} points, "
            f"collapsed == materialized: {sp['results_identical']}"
        )
        lines.append(
            f"  scale sweep    : p={sw['p']}, {sw['points']} points "
            f"({sw['lazy_points']} lazy) in {sw['wall_s']:6.2f} s "
            f"(budget {sw['budget_s']:.0f} s, "
            f"{len(sw['excluded'])} excluded)"
        )
        for pr in sub["probes"]:
            lines.append(
                f"  scale probe    : p={pr['p']:>8} | {pr['wall_ms']:7.1f} ms "
                f"| {pr['nclasses']} class(es) | "
                f"{pr['messages']} messages"
            )
        lines.append(
            f"  scale gate     : wall grew {sub['wall_ratio']:.1f}x over a "
            f"{sub['p_ratio']:.0f}x rank span (allowed "
            f"{sub['max_ratio']:.0f}x)"
        )
    return "\n".join(lines)
