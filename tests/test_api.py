"""Tests for the public facade (:mod:`repro.api`) and the removed
pre-facade spellings."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.core.schedule import Schedule
from repro.errors import ExecutionError
from repro.runtime.executor import CollectiveRun


class TestBuild:
    def test_returns_schedule(self):
        sched = repro.build("allreduce", "recursive_multiplying", p=9, k=3)
        assert isinstance(sched, Schedule)
        assert sched.nranks == 9

    def test_p_is_keyword_only(self):
        with pytest.raises(TypeError):
            repro.build("allreduce", "recursive_multiplying", 9)


class TestSimulate:
    def test_keyword_nbytes(self):
        sched = repro.build("bcast", "knomial", p=8, k=2)
        res = repro.simulate(sched, repro.reference(8), nbytes=4096)
        assert res.time > 0

    def test_timeline_flag(self):
        sched = repro.build("bcast", "knomial", p=4, k=2)
        res = repro.simulate(sched, repro.reference(4), nbytes=64,
                             timeline=True)
        assert res.timeline is not None

    def test_positional_nbytes_removed(self):
        sched = repro.build("bcast", "knomial", p=4, k=2)
        with pytest.raises(TypeError):
            repro.simulate(sched, repro.reference(4), 64)

    def test_machine_by_name(self):
        sched = repro.build("bcast", "knomial", p=8, k=2)
        named = repro.simulate(sched, "reference-8", nbytes=4096)
        spec = repro.simulate(sched, repro.reference(8), nbytes=4096)
        assert named.time == spec.time

    def test_engine_selection_surface(self):
        sched = repro.build("allgather", "ring", p=8)
        mat = repro.simulate(sched, repro.reference(8), nbytes=8192,
                             engine="materialized")
        col = repro.simulate(sched, repro.reference(8), nbytes=8192,
                             engine="collapsed")
        assert mat.engine == "materialized"
        assert col.engine == "collapsed"
        assert col.time == mat.time
        with pytest.raises(repro.MachineError, match="engine"):
            repro.simulate(sched, repro.reference(8), nbytes=8192,
                           engine="quantum")


class TestExecute:
    def test_lockstep_backend(self):
        run = repro.execute("allreduce", "recursive_multiplying",
                            p=9, count=17, k=3)
        assert isinstance(run, CollectiveRun)
        assert np.array_equal(run.buffers[0], run.expected[0])

    def test_threaded_backend(self):
        run = repro.execute("bcast", "knomial", p=4, count=8, k=2,
                            backend="threaded")
        for buf in run.buffers:
            assert np.array_equal(buf, run.expected[0])

    def test_backends_agree(self):
        a = repro.execute("allreduce", "recursive_multiplying",
                          p=4, count=16, k=2, seed=7)
        b = repro.execute("allreduce", "recursive_multiplying",
                          p=4, count=16, k=2, seed=7, backend="threaded")
        for x, y in zip(a.buffers, b.buffers):
            assert np.array_equal(x, y)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExecutionError, match="backend"):
            repro.execute("bcast", "knomial", p=4, count=8,
                          backend="quantum")

    def test_faults_require_threaded(self):
        from repro.faults.plan import FaultPlan

        with pytest.raises(ExecutionError, match="threaded"):
            repro.execute("bcast", "knomial", p=4, count=8,
                          faults=FaultPlan(seed=0, drop_rate=0.1))

    def test_p_count_keyword_only(self):
        with pytest.raises(TypeError):
            repro.execute("bcast", "knomial", 4, 8)


class TestLegacyRemoval:
    """The PR 3-era once-warned shims are gone after their deprecation
    window; the implementation modules they delegated to still work."""

    def test_legacy_names_removed(self):
        for name in ("build_schedule", "run_collective",
                     "run_collective_threaded", "execute_threaded"):
            with pytest.raises(AttributeError):
                getattr(repro, name)
            assert name not in repro.__all__

    def test_execute_no_longer_dispatches_on_schedule(self):
        sched = repro.build("bcast", "knomial", p=4, k=2)
        buffers = [np.zeros(8, dtype=np.int64) for _ in range(4)]
        with pytest.raises((TypeError, repro.ReproError)):
            repro.execute(sched, buffers)

    def test_implementation_modules_still_work(self):
        from repro.runtime.executor import run_collective
        from repro.runtime.threaded import run_collective_threaded

        run = run_collective("bcast", "knomial", 4, 8, k=2)
        assert np.array_equal(run.buffers[1], run.expected[1])
        bufs = run_collective_threaded("bcast", "knomial", 4, 8, k=2)
        assert len(bufs) == 4

    def test_collect_timeline_shim_warns_once(self):
        """The last shim is gone too: the facade's ``collect_timeline=``
        alias (it warned once per process) is now a plain ``TypeError``,
        and so is the retired ``compiled=`` knob; ``timeline=`` is the
        spelling."""
        sched = repro.build("bcast", "knomial", p=4, k=2)
        with pytest.raises(TypeError, match="collect_timeline"):
            repro.simulate(sched, repro.reference(4), nbytes=64,
                           collect_timeline=True)
        with pytest.raises(TypeError, match="compiled"):
            repro.simulate(sched, repro.reference(4), nbytes=64,
                           compiled=False)
        with pytest.raises(TypeError, match="compiled"):
            repro.execute("bcast", "knomial", p=4, count=8, compiled=False)
        res = repro.simulate(sched, repro.reference(4), nbytes=64,
                             timeline=True)
        assert res.timeline is not None

    def test_implementation_modules_do_not_warn(self):
        from repro.runtime.executor import run_collective
        from repro.simnet import simulate as simnet_simulate
        from repro.simnet.machines import reference

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_collective("bcast", "knomial", 4, 8, k=2)
            sched = repro.build("bcast", "knomial", p=4, k=2)
            simnet_simulate(sched, reference(4), 64, collect_timeline=True)
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]

    def test_facade_calls_do_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sched = repro.build("bcast", "knomial", p=4, k=2)
            repro.simulate(sched, repro.reference(4), nbytes=64)
            repro.execute("bcast", "knomial", p=4, count=8, k=2)
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]
