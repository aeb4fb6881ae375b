"""Tests for the public facade (:mod:`repro.api`) and the removed
pre-facade spellings."""

from __future__ import annotations

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.schedule import Schedule
from repro.errors import ExecutionError, ScheduleError
from repro.faults.plan import FaultPlan
from repro.recovery import execute_with_recovery
from repro.runtime.executor import CollectiveRun

PACKAGE = Path(repro.__file__).resolve().parent

#: The build → run → check copies that ``repro.execute`` replaced.
REMOVED_PIPELINES = ("run_collective", "run_collective_threaded")

#: ``(keywords, the one refusal both entries give)``; both entries
#: default to the lockstep backend.
ARGUMENT_CHECKS = [
    pytest.param(
        {"backend": "quantum"},
        "unknown backend 'quantum'; expected one of ('lockstep', 'threaded')",
        id="unknown-backend",
    ),
    pytest.param(
        {"faults": FaultPlan(seed=0, drop_rate=0.1)},
        "faults require backend='threaded' (the lockstep engine has no "
        "wire to lose messages on)",
        id="faults-on-lockstep",
    ),
    pytest.param(
        {"timeout": 5.0},
        "timeout applies only to backend='threaded'",
        id="timeout-on-lockstep",
    ),
    pytest.param(
        {"timeout": 30.0},
        "timeout applies only to backend='threaded'",
        id="threaded-default-timeout-on-lockstep",
    ),
]


def _spelled(node: ast.AST) -> list:
    """What ``node`` defines, imports, names, reads or spells as a
    string (``__all__`` entries and ``getattr`` names are strings)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [n for alias in node.names for n in (alias.name, alias.asname)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Constant):
        return [node.value]
    return []


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

    @pytest.mark.parametrize("keywords,message", ARGUMENT_CHECKS)
    @pytest.mark.parametrize("recovery", [None, "shrink"])
    def test_one_argument_check(self, keywords, message, recovery):
        with pytest.raises(ExecutionError) as info:
            repro.execute("allreduce", "knomial", p=4, count=8, k=2,
                          recovery=recovery, **keywords)
        assert str(info.value) == message

    @pytest.mark.parametrize("keywords,message", ARGUMENT_CHECKS)
    def test_recovery_entry_checks_alike(self, keywords, message):
        """``execute_with_recovery`` defaults to the lockstep backend, as
        ``repro.execute`` does, and refuses what it refuses."""
        with pytest.raises(ExecutionError) as info:
            execute_with_recovery("allreduce", "knomial", p=4, count=8,
                                  k=2, **keywords)
        assert str(info.value) == message

    def test_p_count_keyword_only(self):
        with pytest.raises(TypeError):
            repro.execute("bcast", "knomial", 4, 8)

    @pytest.mark.parametrize("backend", repro.BACKENDS)
    def test_identical_calls_share_one_schedule(self, backend):
        """The schedule comes from the schedule cache: a second identical
        call reuses the first one's and moves the same bytes."""
        kwargs = dict(p=6, count=29, k=3, root=4, seed=11, backend=backend)
        first = repro.execute("reduce", "knomial", **kwargs)
        second = repro.execute("reduce", "knomial", **kwargs)
        assert second.schedule is first.schedule
        for a, b in zip(first.inputs, second.inputs):
            assert np.array_equal(a, b)
        for a, b in zip(first.buffers, second.buffers):
            assert np.array_equal(a, b)

    def test_root_on_an_unrooted_algorithm_is_refused_warm_or_cold(self):
        """The cached build refuses what the builder refuses, before and
        after the root-0 schedule is in the cache."""
        message = "allreduce/ring does not take a root (got root=5)"
        with pytest.raises(ScheduleError) as cold:
            repro.execute("allreduce", "ring", p=11, count=8, root=5)
        assert str(cold.value) == message
        repro.execute("allreduce", "ring", p=11, count=8)
        with pytest.raises(ScheduleError) as warm:
            repro.execute("allreduce", "ring", p=11, count=8, root=5)
        assert str(warm.value) == message


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

    def test_no_module_names_the_removed_pipelines(self):
        """``repro.execute`` is the one build → run → check pipeline: no
        module of the package defines, imports, exports or names the
        two helpers that copied it."""
        found = [
            f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            for name in _spelled(node) if name in REMOVED_PIPELINES
        ]
        assert not found, "\n".join(found)

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
        from repro.runtime import execute as runtime_execute
        from repro.simnet import simulate as simnet_simulate
        from repro.simnet.machines import reference

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sched = repro.build("bcast", "knomial", p=4, k=2)
            runtime_execute(sched, [np.zeros(8, np.int64) for _ in range(4)])
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
