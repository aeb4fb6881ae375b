"""Execution binds the Schedule it holds.

``Schedule.bind(block_map)`` is the one way to the step tuples the data
walkers run: a never-pickled memo on the schedule, one entry per block
geometry.  These tests pin that

* a cold ``repro.execute`` on either backend and a ``Session``
  collective hash no schedule and look up no compiled artifact, and a
  cold ``repro.execute`` never loads the compiled cache or lowering;
* the memo is built once per geometry, bounded (the oldest geometry
  goes first), absent from the pickle, not shared by a ``relabel()``
  copy, and safe under concurrent binds;
* ``CompiledSchedule.bind`` is a shim onto the source schedule's memo,
  and a decoded artifact, which has no source, refuses.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest

import repro
from repro.compile.cache import (
    CompiledCache,
    get_or_compile,
    global_compiled_cache,
)
from repro.core import schedule as schedule_mod
from repro.core.blocks import ExplicitBlockMap
from repro.core.cache import global_schedule_cache
from repro.core.registry import build_schedule
from repro.core.schedule import Schedule
from repro.errors import CompileError, ExecutionError
from repro.runtime.executor import execute
from repro.runtime.session import Session
from repro.selection import fixed_policy
from test_cold_start import LOADED, fresh


@pytest.fixture
def cold():
    """Empty schedule and compiled caches, before and after."""
    clears = (global_schedule_cache().clear, global_compiled_cache().clear)
    for clear in clears:
        clear()
    yield
    for clear in clears:
        clear()


@pytest.fixture
def binds(monkeypatch):
    """Every ``Schedule._bind`` call (the work behind a memo miss)."""
    calls = []
    real = Schedule._bind

    def spy(self, block_map, stops):
        calls.append(self.describe())
        return real(self, block_map, stops)

    monkeypatch.setattr(Schedule, "_bind", spy)
    return calls


def test_execution_hashes_no_schedule_and_looks_up_no_artifact(
    cold, monkeypatch
):
    hashed, lookups = [], []
    fingerprint = Schedule.fingerprint
    get = CompiledCache.get_or_compile

    def counting_fingerprint(self):
        hashed.append(self.describe())
        return fingerprint(self)

    def counting_get(self, schedule):
        lookups.append(schedule.describe())
        return get(self, schedule)

    monkeypatch.setattr(Schedule, "fingerprint", counting_fingerprint)
    monkeypatch.setattr(CompiledCache, "get_or_compile", counting_get)
    for backend in ("lockstep", "threaded"):
        run = repro.execute("allgather", "kring", p=8, k=2, count=40,
                            backend=backend)
        assert all(np.array_equal(run.buffers[r], run.expected[r])
                   for r in run.expected)

    def worker(comm):
        return comm.allreduce(np.full(6, comm.rank, dtype=np.int64)).tolist()

    assert Session(nranks=4).run(worker) == [[6] * 6] * 4
    assert hashed == []
    assert lookups == []


def test_a_cold_execute_loads_neither_the_compiled_cache_nor_lowering():
    loaded = fresh(
        "import repro\n"
        "repro.execute('allreduce', 'recursive_multiplying', p=9, k=3,"
        " count=17)\n"
        "repro.execute('allgather', 'kring', p=8, k=2, count=40,"
        " backend='threaded')\n" + LOADED
    )
    assert "repro.compile.runner" in loaded
    assert "repro.compile.cache" not in loaded
    assert "repro.compile.lower" not in loaded


def _race(fn, args, errors):
    """``fn(*a)`` for each ``a`` of ``args`` on its own thread, all
    released together under a short switch interval; what any raises is
    appended to ``errors``."""
    start = threading.Barrier(len(args))

    def run(*a):
        start.wait()
        try:
            fn(*a)
        except BaseException as exc:  # noqa: BLE001 — the claim
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=a) for a in args]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestMemo:
    def test_built_once_per_geometry(self, binds):
        sched = build_schedule("allreduce", "recursive_multiplying", 8, k=2)
        bound = sched.bind(sched.block_map(64))
        assert sched.bind(sched.block_map(64)) is bound
        other = sched.bind(sched.block_map(65))
        assert other is not bound
        assert sched.bind(sched.block_map(65)) is other
        assert len(binds) == 2

    def test_an_explicit_map_of_the_same_geometry_hits(self, binds):
        sched = build_schedule("gather", "knomial", 4, k=2)
        even = sched.bind(sched.block_map(8))
        assert sched.bind(ExplicitBlockMap((2, 2, 2, 2))) is even
        assert sched.bind(ExplicitBlockMap((1, 3, 2, 2))) is not even
        assert len(binds) == 2

    def test_the_ninth_geometry_evicts_the_oldest(self, binds):
        cap = schedule_mod._BIND_CACHE_MAX
        sched = build_schedule("bcast", "binomial", 4)
        first = [sched.bind(sched.block_map(n)) for n in range(1, cap + 1)]
        sched.bind(sched.block_map(cap + 1))
        assert len(binds) == cap + 1
        assert len(vars(sched)["_bound"]) == cap
        for n in range(2, cap + 1):
            assert sched.bind(sched.block_map(n)) is first[n - 1]
        assert len(binds) == cap + 1
        assert sched.bind(sched.block_map(1)) is not first[0]
        assert len(binds) == cap + 2

    def test_absent_from_the_pickle(self):
        sched = build_schedule("allgather", "ring", 5)
        blob = pickle.dumps(sched)
        sched.bind(sched.block_map(10))
        assert "_bound" in vars(sched)
        assert pickle.dumps(sched) == blob
        assert "_bound" not in vars(pickle.loads(blob))

    def test_a_relabel_copy_binds_under_its_own_name(self):
        sched = build_schedule("bcast", "knomial", 6, k=3)
        bound = sched.bind(sched.block_map(12))
        twin = sched.relabel(algorithm="renamed")
        twin_bound = twin.bind(twin.block_map(12))
        assert bound.describe_str == sched.describe()
        assert twin_bound.describe_str == twin.describe()
        assert twin_bound.describe_str != bound.describe_str
        assert twin_bound.raw_steps == bound.raw_steps

    def test_concurrent_binds_never_raise_and_agree(self):
        """Eight threads, one fresh schedule, one geometry: every thread
        gets the one memo entry (a racing duplicate bind is dropped)."""
        sched = build_schedule("allreduce", "kring", 16, k=4)
        block_map = sched.block_map(1000)
        results, errors = [], []

        def bind():
            results.append(sched.bind(block_map))

        _race(bind, [()] * 8, errors)
        assert errors == []
        assert len(results) == 8
        assert all(b is results[0] for b in results)
        assert sched.bind(block_map) is results[0]

    def test_concurrent_binds_over_many_geometries_never_raise(self):
        """Eviction races insertion when threads bind more geometries
        than the memo holds."""
        sched = build_schedule("bcast", "binomial", 4)
        twin = sched.relabel()  # its own memo: the reference tuples
        want = {n: twin.bind(twin.block_map(n)).raw_steps
                for n in range(1, 42)}
        errors = []

        def bind(offset):
            for n in range(1 + offset, 40 + offset):
                assert sched.bind(sched.block_map(n)).raw_steps == want[n]

        _race(bind, [(i % 3,) for i in range(8)], errors)
        assert errors == []
        assert len(vars(sched)["_bound"]) <= schedule_mod._BIND_CACHE_MAX

    def test_a_block_map_of_other_blocks_keeps_its_text(self):
        """The one block-count refusal every data path reaches."""
        sched = build_schedule("allgather", "ring", 4)
        with pytest.raises(ExecutionError, match=(
            "block map has 2 blocks but the schedule uses 4"
        )):
            sched.bind(ExplicitBlockMap((3, 3)))

    def test_execute_and_a_session_call_refuse_with_one_text(self):
        """A map of other block count reaches the bind's one check from
        ``execute`` and from a ``Session`` collective alike."""
        block_map = ExplicitBlockMap((3, 3))
        sched = build_schedule("allgather", "ring", 4)
        with pytest.raises(ExecutionError) as direct:
            execute(sched, [np.zeros(6, np.int64) for _ in range(4)],
                    block_map=block_map)

        def worker(comm):
            comm._run("allgather", np.zeros(6, np.int64),
                      block_map=block_map)

        with pytest.raises(ExecutionError) as session:
            Session(nranks=4, table=fixed_policy("allgather", "ring")).run(
                worker
            )
        text = "block map has 2 blocks but the schedule uses 4"
        assert str(direct.value) == text
        assert str(session.value.__cause__) == text


class TestShim:
    def test_an_in_process_lowering_binds_the_source_memo(self, cold):
        sched = build_schedule("reduce_scatter", "ring", 6)
        block_map = sched.block_map(36)
        assert get_or_compile(sched).bind(block_map) is sched.bind(block_map)

    def test_a_decoded_artifact_refuses_to_bind(self, cold):
        sched = build_schedule("bcast", "binomial", 4)
        clone = pickle.loads(pickle.dumps(get_or_compile(sched)))
        clone.verify(sched)
        with pytest.raises(CompileError, match=(
            "a decoded compiled artifact cannot be bound — bind the "
            "Schedule it was verified against"
        )):
            clone.bind(sched.block_map(8))
