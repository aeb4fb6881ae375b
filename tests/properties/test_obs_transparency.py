"""The observability contract, stated as properties.

* **Cost transparency** — enabling full instrumentation (metrics +
  spans + timelines) changes no simulated cost bit-for-bit, on the
  serial path and through the process pool (``jobs=2``), and therefore
  cannot change a tuner's winners either.

* **Worker envelopes** — a pool worker joining an observed sweep ships
  its spans, timelines, and metrics home in an
  :class:`~repro.bench.sweep._ObsEnvelope`; the parent splices them
  into one merged trace with the parent's trace id.

The pool tests patch :func:`repro.parallel._available_cpus` (the same
trick as ``test_schedule_cache.py``) so single-core CI runners exercise
the real ``ProcessPoolExecutor`` instead of the serial clamp.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.parallel
from repro.bench.sweep import (
    SweepPoint,
    _chunk_points,
    _ObsEnvelope,
    _run_chunk,
    clear_sim_memo,
    run_sweep,
)
from repro.core.cache import global_schedule_cache
from repro.core.registry import GENERALIZED_ALGORITHMS
from repro.obs import OBS
from repro.selection.tuner import tune
from repro.simnet.machines import reference


@pytest.fixture(autouse=True)
def clean_state():
    OBS.disable()
    OBS.reset()
    clear_sim_memo()
    global_schedule_cache().clear()
    yield
    OBS.disable()
    OBS.reset()
    clear_sim_memo()
    global_schedule_cache().clear()


def _force_pool(monkeypatch, workers: int = 8) -> None:
    """Defeat the single-core clamp so jobs>=2 really uses the pool."""
    monkeypatch.setattr(repro.parallel, "_available_cpus", lambda: workers)


def _workload():
    machine = reference(8)
    points = [
        SweepPoint(coll, alg, nbytes, k=2)
        for coll, alg in GENERALIZED_ALGORITHMS[:4]
        for nbytes in (256, 4096, 65536)
    ]
    return machine, points


class TestCostTransparency:
    def test_serial_costs_bit_identical_with_obs(self):
        machine, points = _workload()
        plain = run_sweep(points, machine)
        clear_sim_memo()
        global_schedule_cache().clear()
        OBS.enable()
        observed = run_sweep(points, machine)
        OBS.disable()
        assert [r.time for r in plain] == [r.time for r in observed]
        assert [r.error for r in plain] == [r.error for r in observed]

    def test_parallel_costs_bit_identical_with_obs(self, monkeypatch):
        _force_pool(monkeypatch)
        machine, points = _workload()
        plain = run_sweep(points, machine, jobs=2)
        clear_sim_memo()
        global_schedule_cache().clear()
        OBS.enable()
        observed = run_sweep(points, machine, jobs=2)
        OBS.disable()
        assert [r.time for r in plain] == [r.time for r in observed]

    def test_tuner_winners_invariant_under_obs(self):
        machine = reference(8)
        sizes = [64, 4096, 262144]
        baseline = tune(machine, sizes).to_json()
        clear_sim_memo()
        global_schedule_cache().clear()
        OBS.enable()
        observed = tune(machine, sizes).to_json()
        OBS.disable()
        assert baseline == observed

    def test_tuner_winners_invariant_under_obs_jobs2(self, monkeypatch):
        _force_pool(monkeypatch)
        machine = reference(8)
        sizes = [64, 262144]
        baseline = tune(machine, sizes, jobs=2).to_json()
        clear_sim_memo()
        global_schedule_cache().clear()
        OBS.enable()
        observed = tune(machine, sizes, jobs=2).to_json()
        OBS.disable()
        assert baseline == observed


class TestWorkerEnvelope:
    """Drive the worker-side path of :func:`_run_chunk` directly, so it
    is covered even where the cpu clamp degenerates ``jobs=2`` to
    serial."""

    def _worker_chunk(self):
        machine, points = _workload()
        OBS.enable()
        with OBS.span("sweep"):
            ctx = OBS.tracer.context()
        OBS.disable()
        # Pretend the chunk landed in another process: _run_chunk keys
        # worker mode off the context's origin pid, not the obs flag.
        ctx = dataclasses.replace(ctx, origin_pid=-1)
        (chunk,) = _chunk_points(machine, None, None, True, points[:3], ctx)
        out = _run_chunk(chunk)
        return ctx, points[:3], out

    def test_worker_returns_envelope(self):
        ctx, points, out = self._worker_chunk()
        assert len(out) == 1 and isinstance(out[0], _ObsEnvelope)
        env = out[0]
        assert len(env.results) == len(points)
        assert any(s.name == "sweep_chunk" for s in env.spans)
        assert env.busy_s >= 0.0
        assert env.metrics.total("repro_sweep_points_total") == len(points)

    def test_worker_leaves_global_scope_clean(self):
        self._worker_chunk()
        assert not OBS.enabled
        assert not OBS.tracer.spans()

    def test_parent_splices_envelope_into_one_trace(self):
        ctx, points, out = self._worker_chunk()
        env = out[0]
        OBS.enable()
        OBS.tracer.adopt(env.spans, env.timelines)
        OBS.metrics.merge(env.metrics)
        spans = OBS.tracer.spans()
        assert any(s.name == "sweep_chunk" for s in spans)
        assert all(s.trace_id == OBS.tracer.trace_id for s in spans)
        assert (
            OBS.metrics.snapshot().total("repro_sweep_points_total")
            == len(points)
        )

    def test_parent_process_chunk_stays_plain(self):
        """With ctx=None (serial sweep) results come back bare, not
        enveloped."""
        machine, points = _workload()
        (chunk,) = _chunk_points(machine, None, None, True, points[:2])
        out = _run_chunk(chunk)
        assert len(out) == 2
        assert not isinstance(out[0], _ObsEnvelope)


class TestMergedParallelTrace:
    def test_jobs2_sweep_yields_one_merged_trace(self, monkeypatch):
        _force_pool(monkeypatch)
        machine, points = _workload()
        OBS.enable()
        run_sweep(points, machine, jobs=2)
        spans = OBS.tracer.spans()
        OBS.disable()
        names = [s.name for s in spans]
        assert "sweep" in names
        assert names.count("sweep_chunk") >= 2  # one per worker chunk
        assert len({s.trace_id for s in spans}) == 1
        busy = OBS.metrics.snapshot().total(
            "repro_sweep_worker_busy_seconds_total"
        )
        assert busy > 0.0
