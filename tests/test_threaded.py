"""Tests for the thread-based transport (:mod:`repro.runtime.threaded`)."""

import numpy as np
import pytest

from repro.core.registry import build_schedule
from repro.errors import ExecutionError
from repro.faults import FaultPlan
from repro.recovery import HeartbeatDetector
from repro.runtime.buffers import (
    check_outputs,
    initial_buffers,
    make_inputs,
    reference_result,
)
from repro.runtime.executor import execute
from repro.runtime.threaded import ThreadedTransport, execute_threaded
from oracle import RankProgram, RecvOp, SendOp, from_programs


def run_both_ways(collective, algorithm, p, count, k=None, root=0, seed=0):
    """Execute the same schedule on the lockstep and threaded paths."""
    sched = build_schedule(collective, algorithm, p, k=k, root=root)
    inputs = make_inputs(collective, p, count, root=root,
                         rng=np.random.default_rng(seed))
    lock_bufs = initial_buffers(sched, inputs, count)
    thr_bufs = initial_buffers(sched, inputs, count)
    execute(sched, lock_bufs)
    execute_threaded(sched, thr_bufs, timeout=20.0)
    expected = reference_result(collective, inputs, count, root=root)
    check_outputs(sched, thr_bufs, expected, count)
    return lock_bufs, thr_bufs


@pytest.mark.parametrize(
    "collective,algorithm,p,k",
    [
        ("bcast", "knomial", 9, 3),
        ("bcast", "recursive_multiplying", 8, 4),
        ("reduce", "reduce_scatter_gather", 8, None),
        ("allgather", "kring", 12, 4),
        ("allgather", "recursive_multiplying", 17, 4),
        ("allreduce", "kring", 7, 3),
        ("allreduce", "reduce_scatter_allgather", 16, None),
        ("reduce_scatter", "ring", 6, None),
    ],
)
def test_threaded_matches_lockstep(collective, algorithm, p, k):
    lock_bufs, thr_bufs = run_both_ways(collective, algorithm, p, 4 * p + 3, k=k)
    for a, b in zip(lock_bufs, thr_bufs):
        assert np.array_equal(a, b)


def test_repeated_runs_are_deterministic():
    """GIL scheduling varies between runs, but FIFO channels and fixed
    receive application order make the data outcome identical."""
    results = []
    for _ in range(3):
        _, thr = run_both_ways("allreduce", "recursive_multiplying", 9, 30, k=3)
        results.append([b.copy() for b in thr])
    for later in results[1:]:
        for a, b in zip(results[0], later):
            assert np.array_equal(a, b)


def test_deadlocked_schedule_times_out():
    """A hand-built schedule whose receive never gets a send must abort
    with a diagnosis, not hang the test suite."""
    p0 = RankProgram(rank=0)
    p0.add(RecvOp(peer=1, blocks=(0,)))
    p1 = RankProgram(rank=1)
    sched = from_programs(
        collective="bcast",
        algorithm="broken",
        nranks=2,
        nblocks=1,
        programs=[p0, p1],
        root=1,
    )
    transport = ThreadedTransport(sched, timeout=0.2)
    with pytest.raises(ExecutionError, match="timed out|failed"):
        transport.run([np.zeros(1, dtype=np.int64) for _ in range(2)])


def test_leftover_messages_detected():
    p0 = RankProgram(rank=0)
    p0.add(SendOp(peer=1, blocks=(0,)))
    p1 = RankProgram(rank=1)
    sched = from_programs(
        collective="bcast",
        algorithm="leaky",
        nranks=2,
        nblocks=1,
        programs=[p0, p1],
        root=0,
    )
    with pytest.raises(ExecutionError, match="never"):
        execute_threaded(
            sched, [np.zeros(1, dtype=np.int64) for _ in range(2)], timeout=2.0
        )


def test_buffer_count_checked():
    sched = build_schedule("bcast", "binomial", 4)
    with pytest.raises(ExecutionError, match="buffers"):
        ThreadedTransport(sched).run([np.zeros(2)])


def test_larger_scale_threaded_run():
    """32 threads moving real data through a composite algorithm."""
    run_both_ways("allreduce", "kring", 32, 64, k=8)


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"detector": HeartbeatDetector(2, timeout=5.0)},
        {"faults": FaultPlan(delay_rate=0.5, seed=1)},
    ],
    ids=["fault-free", "detector", "faults"],
)
def test_fifo_block_mismatch_diagnosed_on_every_path(kwargs):
    """A malformed allgather — rank 1 sends block 0 where rank 0 expects
    block 1 — must be diagnosed, never executed with wrong data, whichever
    channels and step boundaries the transport picked."""
    p0 = RankProgram(rank=0)
    p0.add(SendOp(peer=1, blocks=(0,)), RecvOp(peer=1, blocks=(1,)))
    p1 = RankProgram(rank=1)
    p1.add(SendOp(peer=0, blocks=(0,)), RecvOp(peer=0, blocks=(0,)))
    sched = from_programs(
        collective="allgather",
        algorithm="malformed",
        nranks=2,
        nblocks=2,
        programs=[p0, p1],
    )
    bufs = [np.arange(4, dtype=np.int64) + 10 * r for r in range(2)]
    with pytest.raises(ExecutionError) as info:
        execute_threaded(sched, bufs, timeout=2.0, **kwargs)
    text = str(info.value)
    assert "rank 0 step 0" in text
    assert "expected blocks (1,)" in text
    assert "carries (0,)" in text
