"""The sweep's simulation memo is keyed on what the kernel reads.

``bench.sweep._SIM_MEMO`` keys a point on ``(plan digest, message-size
digest, machine, noise, faults)`` (``bench.sweep._table_key``), so
schedules that lower to one kernel table share one kernel run whatever
their names.  These tests pin that the key hits where the tables are
equal (degenerate radices of Table I's families), misses wherever any
input of the kernel differs, and never joins two points whose kernel
calls differ: over the registry grid, equal keys mean equal
``kernel.run`` arguments.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from repro.bench import sweep as sweep_mod
from repro.bench.sweep import SweepPoint, clear_sim_memo, simulate_point
from repro.core.cache import global_schedule_cache
from repro.core.lazy import LazySchedule
from repro.core.registry import _REGISTRY, build_schedule
from repro.faults.plan import FaultPlan
from repro.selection.tuner import radix_grid
from repro.simnet import kernel
from repro.simnet.machines import frontier, polaris, reference, resolve
from repro.simnet.noise import NoiseModel
from repro.simnet.simulate import simulate
from repro.store.schedules import open_schedule_store


@pytest.fixture
def kernel_calls(monkeypatch) -> List[dict]:
    """Every ``kernel.run`` call's keyword arguments, ``obs`` and the
    ``contended`` hint dropped: the hint is the plan's own mutable memo
    and no result depends on it (``tests/test_certified_runs.py``)."""
    calls: List[dict] = []
    real = kernel.run

    def spy(**kw):
        calls.append(
            {k: v for k, v in kw.items() if k not in ("obs", "contended")}
        )
        return real(**kw)

    monkeypatch.setattr(kernel, "run", spy)
    # An empty schedule cache too: the hit tests read ``cache_hit``.
    clears = (clear_sim_memo, global_schedule_cache().clear)
    for clear in clears:
        clear()
    yield calls
    for clear in clears:
        clear()


def _run(machine, *points, **kw):
    return [simulate_point(machine, pt, **kw) for pt in points]


class TestHits:
    def test_knomial_k2_replays_binomial(self, kernel_calls):
        m = resolve("frontier-4x4")
        binomial, knomial = _run(
            m,
            SweepPoint("bcast", "binomial", 4096),
            SweepPoint("bcast", "knomial", 4096, k=2),
        )
        assert len(kernel_calls) == 1
        assert not binomial.sim_hit and knomial.sim_hit
        assert knomial.time == binomial.time

    def test_kring_degenerate_radices_share_ring(self, kernel_calls):
        m = resolve("frontier-4x4")
        results = _run(
            m,
            SweepPoint("allreduce", "ring", 65536),
            SweepPoint("allreduce", "kring", 65536, k=1),
            SweepPoint("allreduce", "kring", 65536, k=16),
        )
        assert len(kernel_calls) == 1
        assert [r.sim_hit for r in results] == [False, True, True]
        assert len({r.time for r in results}) == 1
        # The names differ: the schedule cache built all three.
        assert [r.cache_hit for r in results] == [False, False, False]


class TestMisses:
    POINT = SweepPoint("allreduce", "recursive_multiplying", 4096, k=4)

    def _misses(self, kernel_calls, runs):
        for machine, point, kw in runs:
            res = simulate_point(machine, point, **kw)
            assert res.error is None and not res.sim_hit
        assert len(kernel_calls) == len(runs)

    def test_other_size(self, kernel_calls):
        m = resolve("frontier-4x4")
        other = SweepPoint("allreduce", "recursive_multiplying", 4104, k=4)
        self._misses(kernel_calls, [(m, self.POINT, {}), (m, other, {})])

    def test_noise_versus_none(self, kernel_calls):
        m = resolve("frontier-4x4")
        noise = NoiseModel(sigma=0.2, seed=1)
        self._misses(kernel_calls, [
            (m, self.POINT, {}), (m, self.POINT, {"noise": noise}),
        ])

    def test_two_fault_seeds(self, kernel_calls):
        m = resolve("frontier-4x4")
        self._misses(kernel_calls, [
            (m, self.POINT, {"faults": FaultPlan(delay_rate=0.5, seed=s)})
            for s in (1, 2)
        ])

    def test_two_machines_with_equal_rank_counts(self, kernel_calls):
        machines = [frontier(4, 4), polaris(4, 4), reference(16)]
        assert len({m.nranks for m in machines}) == 1
        self._misses(kernel_calls, [(m, self.POINT, {}) for m in machines])


def _kernel_inputs(calls: List[dict]) -> dict:
    (kw,) = calls
    calls.clear()
    return kw


def _same_inputs(a: dict, b: dict) -> bool:
    """Equal keyword arguments, arrays (the flattened held ids) by
    value."""
    return a.keys() == b.keys() and all(
        np.array_equal(v, b[k]) if isinstance(v, np.ndarray) else v == b[k]
        for k, v in a.items()
    )


@pytest.mark.parametrize("p", [4, 7, 8, 16])
def test_equal_keys_mean_equal_kernel_inputs(kernel_calls, p):
    """Any two grid points that share a memo key hand ``kernel.run``
    identical arguments — with and without noise and faults."""
    machine = frontier(p // 4, 4) if p % 4 == 0 else reference(p)
    plans = [
        (None, None),
        (NoiseModel(sigma=0.1, seed=5), None),
        (None, FaultPlan(drop_rate=0.2, delay_rate=0.3, seed=3)),
    ]
    seen: Dict[tuple, dict] = {}
    shared = 0
    for (coll, alg), entry in sorted(_REGISTRY.items()):
        ks = radix_grid(p, min_k=entry.min_k) if entry.takes_k else [None]
        for k in ks:
            schedule = build_schedule(coll, alg, p, k=k)
            for nbytes in (64, 4099):
                for noise, faults in plans:
                    key = (*sweep_mod._table_key(schedule, nbytes), machine,
                           noise, faults)
                    try:
                        simulate(schedule, machine, nbytes, noise=noise,
                                 faults=faults)
                    except Exception:  # noqa: BLE001 — a raise memoizes nothing
                        kernel_calls.clear()
                        continue
                    kw = _kernel_inputs(kernel_calls)
                    if key in seen:
                        shared += 1
                        assert _same_inputs(kw, seen[key]), (
                            coll, alg, k, nbytes
                        )
                    else:
                        seen[key] = kw
    assert shared  # degenerate radices alias at every p


def test_reloaded_schedule_digests_like_a_fresh_build(tmp_path):
    fresh = build_schedule("allreduce", "kring", 16, k=4)
    open_schedule_store(tmp_path).get_or_build("allreduce", "kring", 16, k=4)
    loaded, hit = open_schedule_store(tmp_path).get_or_build(
        "allreduce", "kring", 16, k=4
    )
    assert hit and loaded is not fresh
    assert loaded.sim_plan() is not fresh.sim_plan()
    assert loaded.sim_plan().digest() == fresh.sim_plan().digest()
    assert len(fresh.sim_plan().digest()) == 16


def test_lazy_point_keys_without_materializing(kernel_calls, monkeypatch):
    def refuse(self):
        raise AssertionError("materialize() called")

    monkeypatch.setattr(LazySchedule, "materialize", refuse)
    monkeypatch.setattr(sweep_mod, "_LAZY_SWEEP_MIN_RANKS", 16)
    machine = reference(16)
    point = SweepPoint("allgather", "ring", 4096)
    first, again = _run(machine, point, point)
    assert first.error is None, first.error
    assert not first.sim_hit and again.sim_hit
    assert again.time == first.time
    assert len(kernel_calls) == 1


def test_memo_hit_reports_the_real_schedule_lookup(kernel_calls):
    """A memo hit after the schedule cache was emptied is a build miss:
    ``cache_hit`` comes from the lookup, not from the memo."""
    machine = resolve("frontier-4x4")
    point = SweepPoint("bcast", "knomial", 1024, k=4)
    simulate_point(machine, point)
    global_schedule_cache().clear()
    replay = simulate_point(machine, point)
    assert replay.sim_hit and not replay.cache_hit
    assert len(global_schedule_cache()) == 1
    again = simulate_point(machine, point)
    assert again.sim_hit and again.cache_hit
