"""Property tests of the schedule cache and the parallel sweep engine.

The two contracts PR 2 introduces, stated as properties:

* **Cache transparency** — a schedule served by the content-addressed
  :class:`~repro.core.cache.ScheduleCache` is step-for-step identical to
  a fresh builder call for the same normalized key, across the whole
  (collective, algorithm, p, k, root) space; and reusing cached
  schedules / memoized simulations never changes a simulated time.

* **Parallelism transparency** — ``run_sweep`` at any ``jobs`` level
  returns results bit-identical to the serial run, in the same order,
  including when a seeded :class:`~repro.faults.plan.FaultPlan` is
  active (fault injection is derived deterministically from the plan,
  so it too must be invariant to how the sweep is scheduled).

The pool tests patch :func:`repro.parallel._available_cpus` so the
worker-count clamp cannot silently turn the parallel path into the
serial one on single-core CI runners — they must exercise the real
``ProcessPoolExecutor``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import repro.parallel
from repro.bench.sweep import (
    SweepPoint,
    clear_sim_memo,
    run_sweep,
    simulate_point,
)
from repro.core.cache import (
    ScheduleCache,
    global_schedule_cache,
    schedule_key,
)
from repro.core.registry import GENERALIZED_ALGORITHMS, info
from repro.core.ring import kring_allreduce
from repro.core.schedule import Schedule
from repro.core.serialize import dumps_blob
from repro.errors import ScheduleError
from repro.faults.plan import FaultPlan
from repro.simnet.machines import reference
from oracle import programs_of

PS = st.integers(min_value=1, max_value=20)


@st.composite
def cache_configs(draw):
    coll, alg = draw(st.sampled_from(GENERALIZED_ALGORITHMS))
    p = draw(PS)
    entry = info(coll, alg)
    k = max(entry.min_k, draw(st.integers(min_value=1, max_value=24)))
    root = draw(st.integers(min_value=0, max_value=p - 1))
    return coll, alg, p, k, root if entry.takes_root else 0


@settings(max_examples=60, deadline=None)
@given(cache_configs())
def test_cached_schedule_is_step_for_step_fresh(cfg):
    """A cache hit returns exactly what a fresh build would have."""
    coll, alg, p, k, root = cfg
    cache = ScheduleCache()
    first, hit1 = cache.get_or_build(coll, alg, p, k=k, root=root)
    second, hit2 = cache.get_or_build(coll, alg, p, k=k, root=root)
    assert (hit1, hit2) == (False, True)
    assert second is first  # a hit is the same object, not a rebuild

    fresh = info(coll, alg).build(p, k=k, root=root)
    assert first.fingerprint() == fresh.fingerprint()
    assert first.nranks == fresh.nranks
    assert first.nblocks == fresh.nblocks
    assert programs_of(first) == programs_of(fresh)  # ops compare by value


def test_composites_share_each_phase(monkeypatch):
    """One k-ring allgather serves ``allgather/kring``, ``bcast/kring``
    and both halves of ``allreduce/kring`` at one (p, k) — and sharing
    changes no op and no pickled byte."""
    built = []
    seal = Schedule._seal

    def recording(self, *labels_and_columns):
        seal(self, *labels_and_columns)
        built.append(self.describe())

    monkeypatch.setattr(Schedule, "_seal", recording)
    cache = ScheduleCache()
    kring = {
        c: cache.get_or_build(c, "kring", 12, k=4)[0]
        for c in ("allreduce", "bcast", "allgather")
    }
    assert built.count("allgather kring p=12 k=4") == 1
    assert len(built) == len(set(built))  # nothing was built twice
    stats = cache.phases.stats()
    assert stats.misses == len(cache.phases) and stats.hits >= 3
    assert cache.stats().misses == 3  # the registry-level count is its own

    for collective, shared in kring.items():
        cache.clear()  # … and with it every phase
        assert len(cache.phases) == 0
        alone, hit = cache.get_or_build(collective, "kring", 12, k=4)
        assert not hit and alone is not shared
        assert programs_of(alone) == programs_of(shared)
        assert alone.fingerprint() == shared.fingerprint()
        assert dumps_blob(alone) == dumps_blob(shared)


def test_phases_belong_to_the_cache_that_builds():
    """No module-level state: a builder called directly shares nothing,
    and the global cache's ``clear()`` is a cold start for phases too."""
    cache = global_schedule_cache()
    cache.clear()
    kring_allreduce(8, 2)
    assert len(cache.phases) == 0
    cache.get_or_build("allreduce", "kring", 8, k=2)
    assert len(cache.phases) > 0
    cache.clear()
    assert len(cache.phases) == 0 and cache.phases.stats().lookups == 0


@settings(max_examples=60, deadline=None)
@given(cache_configs())
def test_schedule_key_normalization_matches_builder(cfg):
    """Keys collapse exactly the configs the builder treats as equal
    (the default radix and the explicit one) and refuse what it refuses,
    in its words (a nonzero root on an unrooted algorithm)."""
    coll, alg, p, k, root = cfg
    entry = info(coll, alg)
    key = schedule_key(coll, alg, p, k=k, root=root)
    assert key == schedule_key(coll, alg, p, k=k, root=root)
    if not entry.takes_root and p > 1:
        with pytest.raises(ScheduleError) as keyed:
            schedule_key(coll, alg, p, k=k, root=p - 1)
        with pytest.raises(ScheduleError) as built:
            entry.build(p, k=k, root=p - 1)
        assert str(keyed.value) == str(built.value)
    if entry.default_k is not None and k == entry.default_k:
        assert key == schedule_key(coll, alg, p, k=None, root=root)


#: The builder's refusal of a root on an unrooted algorithm.
ROOT_REFUSAL = "allreduce/ring does not take a root (got root=5)"


def test_warm_cache_refuses_a_root_the_builder_refuses():
    """A cold lookup and a lookup after the root-0 schedule is cached
    both refuse ``root=5`` on an unrooted algorithm, in the builder's
    words — a private cache and the process-global one alike."""
    for cache in (ScheduleCache(), global_schedule_cache()):
        with pytest.raises(ScheduleError) as cold:
            cache.get_or_build("allreduce", "ring", 8, root=5)
        assert str(cold.value) == ROOT_REFUSAL
        cache.get_or_build("allreduce", "ring", 8, root=0)
        with pytest.raises(ScheduleError) as warm:
            cache.get_or_build("allreduce", "ring", 8, root=5)
        assert str(warm.value) == ROOT_REFUSAL


@settings(max_examples=40, deadline=None)
@given(
    cache_configs(),
    st.sampled_from([64, 4096, 1 << 18]),
    st.integers(min_value=0, max_value=2**16),
)
def test_reuse_never_changes_a_result(cfg, nbytes, seed):
    """Cold path == cached path == memoized path, to the bit — with and
    without an active fault plan."""
    coll, alg, p, k, root = cfg
    machine = reference(p)
    for faults in (None, FaultPlan(delay_rate=0.3, seed=seed)):
        point = SweepPoint(coll, alg, nbytes, k=k, root=root)
        cold = simulate_point(machine, point, faults=faults, reuse=False)
        clear_sim_memo()
        cached = simulate_point(machine, point, faults=faults)
        memoized = simulate_point(machine, point, faults=faults)
        assert cold.time == cached.time == memoized.time
        assert cold.error is cached.error is memoized.error is None
        assert memoized.sim_hit and not cold.sim_hit


def _force_pool(monkeypatch, workers: int = 8) -> None:
    """Defeat the core-count clamp so jobs>=2 uses a real process pool."""
    monkeypatch.setattr(repro.parallel, "_available_cpus", lambda: workers)


def _grid_points(p: int):
    points = []
    for coll, alg in GENERALIZED_ALGORITHMS[:4]:
        entry = info(coll, alg)
        k = max(entry.min_k, 2)
        for nbytes in (64, 4096, 1 << 16):
            points.append(SweepPoint(coll, alg, nbytes, k=k, root=0))
    # One deliberately broken point: error isolation must hold in every
    # execution mode and errors must come back in position, not raise.
    points.insert(3, SweepPoint("bcast", "knomial", 1024, k=0, root=0))
    return points


@pytest.mark.parametrize("jobs", [2, 4])
@pytest.mark.parametrize(
    "faults", [None, FaultPlan(delay_rate=0.5, delay_factor=3.0, seed=7)]
)
def test_parallel_sweep_bit_identical_to_serial(monkeypatch, jobs, faults):
    _force_pool(monkeypatch)
    machine = reference(8)
    points = _grid_points(8)

    clear_sim_memo()
    serial = run_sweep(points, machine, jobs=0, faults=faults)
    clear_sim_memo()
    parallel = run_sweep(points, machine, jobs=jobs, faults=faults)

    assert [r.point for r in serial] == points
    assert [r.point for r in parallel] == points
    assert [r.time for r in parallel] == [r.time for r in serial]
    assert [r.error for r in parallel] == [r.error for r in serial]
    bad = [r for r in serial if r.error is not None]
    assert len(bad) == 1 and bad[0].point.k == 0


def test_parallel_sweep_matches_cold_serial(monkeypatch):
    """jobs=2 with reuse beats nothing if it drifts from the ground
    truth: compare against the cold serial path, not just serial reuse."""
    _force_pool(monkeypatch)
    machine = reference(8)
    points = [
        pt for pt in _grid_points(8) if pt.k  # drop the poisoned point
    ]
    cold = run_sweep(points, machine, jobs=0, reuse=False)
    clear_sim_memo()
    warm = run_sweep(points, machine, jobs=2, reuse=True)
    assert [r.time for r in warm] == [r.time for r in cold]
