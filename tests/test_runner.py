"""Tests for the reference interpreter the differential suites keep as
their oracle (``tests/oracle.py``)."""

import pytest

from repro.errors import ExecutionError

from oracle import (
    CopyOp,
    RankProgram,
    RecvOp,
    SendOp,
    from_programs,
    run_schedule,
)


class RecordingModel:
    """Minimal data model: payload = (rank, op blocks); records receives."""

    def __init__(self):
        self.received = []
        self.copies = []

    def snapshot(self, rank, op):
        return (rank, op.blocks)

    def apply_recv(self, rank, op, payload):
        self.received.append((rank, op.peer, op.blocks, payload))

    def apply_copy(self, rank, op):
        self.copies.append((rank, op.src, op.dst))


def make(programs, nranks, nblocks=4, collective="bcast"):
    return from_programs(
        collective=collective,
        algorithm="test",
        nranks=nranks,
        nblocks=nblocks,
        programs=programs,
        root=0,
    )


def test_simple_exchange_delivers():
    p0 = RankProgram(rank=0)
    p0.add(SendOp(peer=1, blocks=(0,)), RecvOp(peer=1, blocks=(1,)))
    p1 = RankProgram(rank=1)
    p1.add(SendOp(peer=0, blocks=(1,)), RecvOp(peer=0, blocks=(0,)))
    model = RecordingModel()
    result = run_schedule(make([p0, p1], 2), model)
    assert result.delivered_messages == 2
    assert len(model.received) == 2


def test_fifo_matching_per_channel():
    """Two back-to-back sends on one channel must arrive in order."""
    p0 = RankProgram(rank=0)
    p0.add(SendOp(peer=1, blocks=(0,)))
    p0.add(SendOp(peer=1, blocks=(1,)))
    p1 = RankProgram(rank=1)
    p1.add(RecvOp(peer=0, blocks=(0,)))
    p1.add(RecvOp(peer=0, blocks=(1,)))
    model = RecordingModel()
    run_schedule(make([p0, p1], 2), model)
    blocks_in_order = [r[2] for r in model.received]
    assert blocks_in_order == [(0,), (1,)]


def test_mismatched_blocks_raise():
    """A receive naming different blocks than the in-flight message is a
    structural bug and must be reported, not silently reinterpreted."""
    p0 = RankProgram(rank=0)
    p0.add(SendOp(peer=1, blocks=(0,)))
    p1 = RankProgram(rank=1)
    p1.add(RecvOp(peer=0, blocks=(2,)))
    with pytest.raises(ExecutionError, match="blocks"):
        run_schedule(make([p0, p1], 2), RecordingModel())


def test_deadlock_detected_and_reported():
    """Two ranks each waiting for the other's never-sent message."""
    p0 = RankProgram(rank=0)
    p0.add(RecvOp(peer=1, blocks=(0,)))
    p1 = RankProgram(rank=1)
    p1.add(RecvOp(peer=0, blocks=(0,)))
    with pytest.raises(ExecutionError, match="deadlock"):
        run_schedule(make([p0, p1], 2), RecordingModel())


def test_unconsumed_message_detected():
    p0 = RankProgram(rank=0)
    p0.add(SendOp(peer=1, blocks=(0,)))
    p1 = RankProgram(rank=1)  # never receives
    with pytest.raises(ExecutionError, match="never received"):
        run_schedule(make([p0, p1], 2), RecordingModel())


def test_copies_apply_at_post_time():
    p0 = RankProgram(rank=0)
    p0.add(CopyOp(src=0, dst=1))
    model = RecordingModel()
    run_schedule(make([p0], 1), model)
    assert model.copies == [(0, 0, 1)]


def test_sends_snapshot_before_same_step_receives():
    """A step that both sends and reduce-receives must snapshot the send
    payload from the pre-step state (nonblocking semantics)."""

    class StatefulModel:
        def __init__(self):
            self.state = {0: "a0", 1: "b0"}
            self.sent_payloads = []

        def snapshot(self, rank, op):
            payload = self.state[rank]
            self.sent_payloads.append(payload)
            return payload

        def apply_recv(self, rank, op, payload):
            self.state[rank] = self.state[rank] + "+" + payload

        def apply_copy(self, rank, op):
            raise AssertionError("no copies in this test")

    p0 = RankProgram(rank=0)
    p0.add(SendOp(peer=1, blocks=(0,)), RecvOp(peer=1, blocks=(0,), reduce=True))
    p1 = RankProgram(rank=1)
    p1.add(SendOp(peer=0, blocks=(0,)), RecvOp(peer=0, blocks=(0,), reduce=True))
    model = StatefulModel()
    run_schedule(make([p0, p1], 2, nblocks=1, collective="allreduce"), model)
    # Each side must have sent its ORIGINAL value, not the merged one.
    assert sorted(model.sent_payloads) == ["a0", "b0"]
    assert model.state[0] == "a0+b0"
    assert model.state[1] == "b0+a0"


def test_out_of_order_steps_across_ranks():
    """Ranks with different step counts still match (no global lockstep):
    rank 0 does two sequential sends to different peers while peers each
    do one receive."""
    p0 = RankProgram(rank=0)
    p0.add(SendOp(peer=1, blocks=(0,)))
    p0.add(SendOp(peer=2, blocks=(0,)))
    p1 = RankProgram(rank=1)
    p1.add(RecvOp(peer=0, blocks=(0,)))
    p2 = RankProgram(rank=2)
    p2.add(RecvOp(peer=0, blocks=(0,)))
    model = RecordingModel()
    result = run_schedule(make([p0, p1, p2], 3), model)
    assert result.delivered_messages == 2


def test_empty_programs_complete_immediately():
    model = RecordingModel()
    result = run_schedule(make([RankProgram(rank=0)], 1), model)
    assert result.delivered_messages == 0
