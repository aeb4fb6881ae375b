"""The simulator's kernel table is the schedule's own memo.

:meth:`Schedule.sim_plan` builds the :class:`~repro.core.schedule.SimPlan`
from the schedule's columns and FIFO matching, once per object, never
pickled.  ``simulate`` and the sweep's memo key
(``bench.sweep._table_key``) read it there, so a cold tune hashes no
schedule text (``Schedule.fingerprint()``) and looks nothing up in the
compiled cache.  The plan's actor programs are CSR arrays (``codes``,
``bounds``, ``first``), and its digest frames each array by its length.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import pickle

import numpy as np
import pytest

import repro.core.schedule as schedule_mod
from repro.bench.sweep import clear_sim_memo
from repro.compile import compile_schedule, global_compiled_cache
from repro.compile.cache import clear_class_cache
from repro.core.cache import global_schedule_cache
from repro.core.registry import build_schedule
from repro.core.schedule import Schedule, SimPlan
from repro.selection.tuner import tune
from repro.simnet.machines import resolve


def test_cold_tune_hashes_no_schedule_and_compiles_nothing(monkeypatch):
    hashed = []
    fingerprint = Schedule.fingerprint

    def counting_fingerprint(self):
        hashed.append(self.describe())
        return fingerprint(self)

    monkeypatch.setattr(Schedule, "fingerprint", counting_fingerprint)
    compiled = global_compiled_cache()
    clears = (clear_sim_memo, global_schedule_cache().clear,
              clear_class_cache, compiled.clear)
    for clear in clears:
        clear()
    try:
        before = compiled.stats().lookups
        tune(resolve("frontier-2x4"), (1024, 65536, 1 << 20))
        lookups = compiled.stats().lookups - before
    finally:
        for clear in clears:
            clear()
    assert hashed == []
    assert lookups == 0


class TestDigest:
    @pytest.fixture
    def plan(self) -> SimPlan:
        return build_schedule("allgather", "ring", 4).sim_plan()

    def _with(self, plan: SimPlan, **arrays) -> SimPlan:
        return dataclasses.replace(
            plan, routes={}, _digest=None,
            **{k: np.asarray(v, dtype=np.int64) for k, v in arrays.items()},
        )

    def test_equal_codes_other_bounds_or_first(self, plan):
        """One actor's two steps merged, or one step handed to the next
        actor: the op codes are the same, the tables are not."""
        bounds, first = plan.bounds.tolist(), plan.first.tolist()
        merged = self._with(plan, bounds=bounds[:1] + bounds[2:])
        shifted = self._with(plan, first=[0, first[1] - 1, *first[2:]])
        digests = {plan.digest(), merged.digest(), shifted.digest()}
        assert len(digests) == 3

    def test_each_array_is_framed_by_its_length(self, plan):
        """``bounds`` and ``first`` concatenate to the same integers in
        both plans; only the split between them differs."""
        a = self._with(plan, bounds=[0, 2, 4], first=[0, 1, 2])
        b = self._with(plan, bounds=[0, 2], first=[4, 0, 1, 2])
        assert a.digest() != b.digest()

    def test_dtype_is_not_content(self, plan):
        wide = self._with(plan, codes=plan.codes)
        assert wide.codes.dtype != plan.codes.dtype
        assert wide.digest() == plan.digest()


class TestMemo:
    def test_built_once_and_shared_by_relabel_copies(self):
        sched = build_schedule("allreduce", "kring", 8, k=4)
        plan = sched.sim_plan()
        assert sched.sim_plan() is plan
        assert sched.relabel(k=None).sim_plan() is plan

    def test_never_pickled(self):
        sched = build_schedule("allreduce", "kring", 8, k=4)
        plan = sched.sim_plan()
        blob = pickle.dumps(sched)
        assert b"SimPlan" not in blob and b"_sim_plan" not in blob
        loaded = pickle.loads(blob)
        assert loaded.sim_plan() is not plan
        assert loaded.sim_plan().digest() == plan.digest()

    def test_flat_arrays_match_the_columns(self):
        sched = build_schedule("bcast", "knomial", 12, k=3, root=5)
        plan, cols = sched.sim_plan(), sched.columns()
        moves = cols.kinds != schedule_mod.OP_COPY
        assert len(plan.codes) == int(moves.sum())
        assert plan.first.tolist() == [
            0, *np.cumsum(cols.nsteps()).tolist()
        ]
        assert np.diff(plan.bounds).tolist() == cols.step_lens().tolist()

    def test_the_compiled_artifact_carries_no_plan(self):
        import repro.compile.program as program

        compiled = compile_schedule(build_schedule("allgather", "ring", 4))
        assert not hasattr(compiled, "sim_plan")
        assert not hasattr(program, "SimPlan")
        assert not hasattr(program, "build_sim_plan")


def test_the_plans_module_imports_nothing_from_compile():
    tree = ast.parse(inspect.getsource(schedule_mod))
    imported = [
        node.module or "" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ] + [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names
    ]
    assert not [m for m in imported if "compile" in m.split(".")]
