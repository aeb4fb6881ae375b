"""A send its rank never writes again travels as a view.

``BoundSchedule.views`` flags, per send, whether the data walkers may
hand the receiver ``buf[a:b]`` instead of a staged snapshot.  These
tests pin that

* the flags equal a slow element-range reference over the registry: a
  flagged send is one slice that no copy destination or receive of its
  rank touches at its step or later, and every such send is flagged;
* every k-nomial/binomial bcast and reduce send is a view, so a
  lockstep ``reduce/knomial`` at p = 64 allocates less than one payload;
* views change no byte: a run with every flag cleared leaves the same
  buffers, and the staging pool never takes a view back;
* a finished run pins no block: once the caller drops its buffers, the
  one block they are rows of is freed, on both backends.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.compile import StagingPool, run_compiled_lockstep
from repro.core.registry import COLLECTIVES, algorithms_for, info
from repro.core.registry import build_schedule
from repro.runtime.buffers import initial_buffers, make_inputs
from repro.runtime.executor import execute
from repro.runtime.ops import SUM
from repro.runtime.threaded import execute_threaded

PS = (8, 13, 16)


def registry_schedules():
    """Every data-moving registry entry at :data:`PS`, each radix from
    ``min_k`` to ``p`` that the executor grid uses, rooted ones at a
    rotated root."""
    out = []
    for coll in COLLECTIVES:
        if coll == "barrier":
            continue
        for alg in algorithms_for(coll):
            entry = info(coll, alg)
            for p in PS:
                ks = [None]
                if entry.takes_k:
                    ks = [k for k in sorted({entry.min_k, 3, p})
                          if k >= entry.min_k]
                root = p // 2 if entry.takes_root else 0
                for k in ks:
                    out.append(build_schedule(coll, alg, p, k=k, root=root))
    return out


def reference_views(bound):
    """The flags by brute force over element ranges: one slice, and no
    copy destination or receive range of the rank at this step or later
    intersects it.  Exact when every block is non-empty."""
    views = []
    for steps in bound.raw_steps:
        writes = [
            [(d0, d1) for _, _, d0, d1 in copies]
            + [r for recv in recvs for r in recv[2]]
            for _, copies, recvs in steps
        ]
        flags = []
        for i, (sends, _, _) in enumerate(steps):
            later = [w for ws in writes[i:] for w in ws]
            flags.append(tuple(
                len(ranges) == 1 and not any(
                    max(ranges[0][0], c) < min(ranges[0][1], d)
                    for c, d in later
                )
                for _, ranges, _ in sends
            ))
        views.append(flags)
    return views


@pytest.fixture(scope="module")
def schedules():
    return registry_schedules()


def counts_of(sched):
    """One element per block, and an uneven count (no block empty)."""
    return (sched.nblocks, 2 * sched.nblocks + 3)


def test_flags_match_the_element_range_reference(schedules):
    flagged = 0
    for sched in schedules:
        for count in counts_of(sched):
            bound = sched.bind(sched.block_map(count))
            want = reference_views(bound)
            assert bound.views == want, (sched.describe(), count)
            flagged += sum(f for rank in want for step in rank for f in step)
    assert flagged  # the grid exercises the rule


@pytest.mark.parametrize("collective", ["bcast", "reduce"])
@pytest.mark.parametrize("algorithm", ["binomial", "knomial"])
def test_every_tree_bcast_and_reduce_send_is_a_view(collective, algorithm):
    entry = info(collective, algorithm)
    for p in PS:
        for k in ([None] if not entry.takes_k else [2, 3, 4, p]):
            sched = build_schedule(collective, algorithm, p, k=k,
                                   root=p // 2)
            for count in counts_of(sched):
                bound = sched.bind(sched.block_map(count))
                flags = [f for rank in bound.views for step in rank
                         for f in step]
                assert flags and all(flags), (sched.describe(), count)


def test_a_lockstep_knomial_reduce_allocates_less_than_one_payload():
    """Every send is a view, so no payload is staged: the run allocates
    less than one 2^15-element int64 payload (256 KiB)."""
    p, count = 64, 1 << 15
    sched = build_schedule("reduce", "knomial", p, k=4)
    sched.bind(sched.block_map(count))  # the memo, not the run
    inputs = make_inputs("reduce", p, count)
    buffers = initial_buffers(sched, inputs, count)
    tracemalloc.start()
    try:
        execute(sched, buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < count * 8, peak
    assert np.array_equal(buffers[0], np.sum(inputs, axis=0))


def test_views_change_no_byte(schedules):
    """The lockstep walker with every flag cleared (every send a
    snapshot) leaves the same buffers as with the bind's flags."""
    for sched in schedules:
        count = counts_of(sched)[1]
        bound = sched.bind(sched.block_map(count))
        snapshots = dataclasses.replace(bound, views=[
            [tuple(False for _ in step) for step in rank]
            for rank in bound.views
        ])
        inputs = make_inputs(sched.collective, sched.nranks, count,
                             root=sched.root or 0)
        runs = []
        for b in (bound, snapshots):
            buffers = initial_buffers(sched, inputs, count)
            run_compiled_lockstep(b, buffers, SUM)
            runs.append(np.stack(buffers))
        assert np.array_equal(*runs), sched.describe()


def test_the_pool_never_takes_a_view_back():
    pool = StagingPool((4,), np.dtype(np.int64))
    buf = np.arange(8, dtype=np.int64)
    pool.release(buf[2:6])
    staged = pool.acquire(4)
    assert not np.shares_memory(staged, buf)
    pool.release(staged)
    assert pool.acquire(4) is staged


@pytest.mark.parametrize("run", [execute, execute_threaded])
def test_a_finished_run_pins_no_block(run):
    """A parked pool worker keeps no reference to the task it ran: one
    row left behind would keep the caller's whole block alive."""
    sched = build_schedule("reduce", "knomial", 16, k=4)
    buffers = initial_buffers(sched, make_inputs("reduce", 16, 64), 64)
    block = weakref.ref(buffers[0].base)
    run(sched, buffers)
    del buffers
    assert block() is None
