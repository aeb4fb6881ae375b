"""Tests for the DES kernel (:mod:`repro.simnet.kernel`) on hand-built
tables.

What the generator engine's own tests protected and still exists — tie
order, FIFO resources, the zero-event run, the deadlock diagnosis — is
re-asserted here on the flat kernel.  Release order and the synchronous
hand-over are deliberately *not* given a hand-built table: the corner
corpus (``tests/golden/des_corners.json``, written by the old engine) on
the 1-channel / 1-port machine is what pins them.
"""

import pytest

from repro.errors import MachineError
from repro.obs import Obs
from repro.simnet import kernel, reference, simulate
from oracle import RankProgram, RecvOp, SendOp, from_programs, kernel_csr


def _run(ops, msgs, *, capacity=(), o=0.0, obs=None, **extra):
    """Run the kernel over ``msgs`` = ``(src, dst, held, hold, alpha)``
    rows (no reduction unless ``gamma_t`` is passed) and actors ``ops``
    (per actor, per step, ``(msg, is_recv)`` pairs)."""
    cols = {
        "src": [m[0] for m in msgs],
        "dst": [m[1] for m in msgs],
        "held": [m[2] for m in msgs],
        "hold": [m[3] for m in msgs],
        "final_hold": [m[3] for m in msgs],
        "alpha": [m[4] for m in msgs],
        "gamma_t": [-1.0] * len(msgs),
    }
    cols.update(extra)
    return kernel.run(
        **kernel_csr([[[i << 1 | r for i, r in step] for step in actor]
                      for actor in ops]),
        limit=[len(actor) for actor in ops],
        inject=[o] * len(ops),
        capacity=list(capacity),
        collect=True,
        obs=obs or Obs(),
        **cols,
    )


def _fan(order):
    """Actor 0 sends, actor 1 receives, the messages in ``order``."""
    return [[[(i, 0) for i in order]], [[(i, 1) for i in order]]]


class TestOrdering:
    def test_phases_advance_clock(self):
        makespan, times, retrans, rows = _run(
            _fan([0]), [(0, 1, (), 1.5, 2.5)]
        )
        assert makespan == 4.0
        assert times == [1.5, 4.0]  # send completes at hold, recv at delivery
        assert rows == [(0, 0.0, 4.0)] and retrans == 0

    def test_tie_break_is_push_order(self):
        """Two identical messages on disjoint actors: whichever transfer
        was started (pushed) first is delivered first — not the lower
        message id."""
        for a, b in ((0, 1), (1, 0)):
            ops = [[[(a, 0)]], [[(a, 1)]], [[(b, 0)]], [[(b, 1)]]]
            msgs = [None, None]
            msgs[a] = (0, 1, (), 1.0, 1.0)
            msgs[b] = (2, 3, (), 1.0, 1.0)
            _, _, _, rows = _run(ops, msgs)
            assert rows == [(a, 0.0, 2.0), (b, 0.0, 2.0)]


class TestResources:
    def test_capacity_serializes(self):
        """Three 1-second holds over a 1-unit resource take 3 seconds."""
        msgs = [(0, 1, (0,), 1.0, 0.0)] * 3
        makespan, _, _, rows = _run(_fan([0, 1, 2]), msgs, capacity=[1])
        assert makespan == 3.0
        assert rows == [(0, 0.0, 1.0), (1, 1.0, 2.0), (2, 2.0, 3.0)]

    def test_capacity_two_overlaps(self):
        """Two units: the first two overlap, the third queues."""
        msgs = [(0, 1, (0,), 1.0, 0.0)] * 3
        _, _, _, rows = _run(_fan([0, 1, 2]), msgs, capacity=[2])
        assert rows == [(0, 0.0, 1.0), (1, 0.0, 1.0), (2, 1.0, 2.0)]

    def test_fifo_grant_order(self):
        """Parked messages are served in the order they asked, whatever
        their ids."""
        msgs = [(0, 1, (0,), 1.0, 0.0)] * 3
        _, _, _, rows = _run(_fan([2, 0, 1]), msgs, capacity=[1])
        assert [i for i, _, _ in rows] == [2, 0, 1]

    def test_reductions_serialize_on_receiver(self):
        """Two reducing receives share the receiver's one compute unit."""
        msgs = [(0, 1, (), 0.0, 1.0)] * 2
        makespan, _, _, rows = _run(_fan([0, 1]), msgs, gamma_t=[2.0, 2.0])
        assert rows == [(0, 0.0, 3.0), (1, 0.0, 5.0)] and makespan == 5.0


class TestHeapEvents:
    def _events(self, ops, msgs, **kwargs):
        obs = Obs(enabled=True)
        result = _run(ops, msgs, obs=obs, **kwargs)
        return result, obs.metrics.snapshot().value(
            "repro_engine_events_total"
        )

    def test_zero_messages_zero_events(self):
        """Nothing to post: makespan 0.0, every actor done at 0.0, and no
        heap event — empty steps included."""
        (makespan, times, _, rows), events = self._events(
            [[], [[], []], []], []
        )
        assert (makespan, times, rows) == (0.0, [0.0, 0.0, 0.0], [])
        assert events == 0

    def test_posts_push_no_event_without_overhead(self):
        """A message is two heap events (hold, α); each post is one more
        exactly when posting costs time."""
        msgs = [(0, 1, (), 1.0, 1.0)] * 2
        _, free = self._events(_fan([0, 1]), msgs)
        _, paid = self._events(_fan([0, 1]), msgs, o=0.25)
        assert (free, paid) == (4, 8)


def _exchange_wrong_way_round():
    """Two ranks that each receive in step 0 and send in step 1."""
    programs = []
    for rank in (0, 1):
        prog = RankProgram(rank=rank)
        prog.add(RecvOp(peer=1 - rank, blocks=(0,)))
        prog.add(SendOp(peer=1 - rank, blocks=(0,)))
        programs.append(prog)
    return from_programs(collective="allgather", algorithm="stuck",
                         nranks=2, nblocks=1, programs=programs)


class TestDeadlock:
    def test_blocked_ranks_and_transfers_named(self):
        """Through the public door: both ranks wait on receives whose
        sends come a step later, so nothing is ever posted twice."""
        with pytest.raises(
            MachineError, match=r"simulation deadlock: 4 process"
        ) as exc:
            simulate(_exchange_wrong_way_round(), reference(2), 8)
        for name in ("rank0", "rank1", "xfer0", "xfer1"):
            assert name in str(exc.value)

    def test_deadlock_after_events_fire(self):
        """Detected when the heap drains, however late: actor 0's second
        send is never received."""
        ops = [[[(0, 0)], [(1, 0)]], [[(0, 1)]]]
        msgs = [(0, 1, (), 1.0, 1.0), (0, 1, (), 1.0, 1.0)]
        with pytest.raises(MachineError, match=r"2 process.*blocked at t=2"):
            _run(ops, msgs)

    def test_blocked_step_is_the_actors_own(self):
        """A blocked actor is named with its step in its own program, not
        its index among all actors' steps: actor 1 waits in its step 1
        (the table's third step)."""
        ops = [[[(0, 1)]], [[(0, 0)], [(1, 0)]]]
        msgs = [(1, 0, (), 1.0, 1.0), (1, 0, (), 1.0, 1.0)]
        with pytest.raises(MachineError, match=r"rank1 \(step 1\)"):
            _run(ops, msgs)
