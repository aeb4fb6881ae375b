"""Tests for the symbolic validator (:mod:`repro.core.validate`).

The validator's job is to *reject* broken schedules; most tests here
construct schedules with specific bugs (the corner cases §VI-A warns
about) and assert the right rejection, plus positive checks on the
initial-state/postcondition logic.
"""

import pytest

from repro.core.registry import build_schedule
from repro.core.validate import initial_state, postcondition_errors, verify
from repro.errors import ValidationError
from oracle import RankProgram, RecvOp, SendOp, from_programs


def make(programs, nranks, nblocks, collective, root=None):
    return from_programs(
        collective=collective,
        algorithm="test",
        nranks=nranks,
        nblocks=nblocks,
        programs=programs,
        root=root,
    )


class TestInitialState:
    def test_bcast_root_has_all_blocks(self):
        sched = make([RankProgram(rank=r) for r in range(3)], 3, 2, "bcast", 1)
        state = initial_state(sched)
        assert state[1] == [frozenset({1}), frozenset({1})]
        assert state[0] == [None, None]

    def test_allgather_each_rank_owns_its_block(self):
        sched = make([RankProgram(rank=r) for r in range(3)], 3, 3, "allgather")
        state = initial_state(sched)
        for r in range(3):
            for b in range(3):
                assert state[r][b] == (frozenset({r}) if b == r else None)

    def test_allreduce_everyone_contributes_everywhere(self):
        sched = make([RankProgram(rank=r) for r in range(2)], 2, 1, "allreduce")
        state = initial_state(sched)
        assert state[0][0] == frozenset({0})
        assert state[1][0] == frozenset({1})

    def test_allgather_requires_p_blocks(self):
        sched = make([RankProgram(rank=r) for r in range(3)], 3, 1, "allgather")
        with pytest.raises(ValidationError, match="nblocks"):
            initial_state(sched)

    def test_bcast_requires_root(self):
        sched = make([RankProgram(rank=0)], 1, 1, "bcast", root=None)
        with pytest.raises(ValidationError, match="root"):
            initial_state(sched)


class TestPostcondition:
    def test_incomplete_bcast_reports_missing_ranks(self):
        sched = make([RankProgram(rank=r) for r in range(2)], 2, 1, "bcast", 0)
        state = initial_state(sched)  # rank 1 never receives
        errors = postcondition_errors(sched, state)
        assert any("rank 1" in e for e in errors)

    def test_complete_allreduce_passes(self):
        sched = make([RankProgram(rank=r) for r in range(2)], 2, 1, "allreduce")
        full = frozenset({0, 1})
        assert postcondition_errors(sched, [[full], [full]]) == []


class TestRejection:
    def test_garbage_send_rejected(self):
        """Rank 1 forwards a bcast payload it never received."""
        p0 = RankProgram(rank=0)
        p1 = RankProgram(rank=1)
        p1.add(SendOp(peer=0, blocks=(0,)))
        p0.add(RecvOp(peer=1, blocks=(0,)))
        with pytest.raises(ValidationError, match="garbage"):
            verify(make([p0, p1], 2, 1, "bcast", 0))

    def test_double_count_rejected(self):
        """Rank 0 reduce-receives rank 1's contribution twice (SUM would
        double-count) — the classic generalized-algorithm corner-case bug."""
        p0 = RankProgram(rank=0)
        p1 = RankProgram(rank=1)
        p1.add(SendOp(peer=0, blocks=(0,)))
        p1.add(SendOp(peer=0, blocks=(0,)))
        p0.add(RecvOp(peer=1, blocks=(0,), reduce=True))
        p0.add(RecvOp(peer=1, blocks=(0,), reduce=True))
        with pytest.raises(ValidationError, match="double-count"):
            verify(make([p0, p1], 2, 1, "reduce", 0))

    def test_incomplete_reduction_rejected(self):
        """A reduce that never moves rank 1's contribution to the root."""
        progs = [RankProgram(rank=0), RankProgram(rank=1)]
        with pytest.raises(ValidationError, match="postcondition"):
            verify(make(progs, 2, 1, "reduce", 0))

    def test_minimal_correct_allgather_passes(self):
        p0 = RankProgram(rank=0)
        p1 = RankProgram(rank=1)
        p1.add(SendOp(peer=0, blocks=(1,)))
        p0.add(RecvOp(peer=1, blocks=(1,)))
        p0.add(SendOp(peer=1, blocks=(0,)))
        p1.add(RecvOp(peer=0, blocks=(0,)))
        verify(make([p0, p1], 2, 2, "allgather"))

    def test_wrong_slot_delivery_rejected(self):
        """Rank 1 sends its block labeled as block 0 — the receive's slot
        disagrees with the wire message and the mismatch is fatal."""
        from repro.errors import ExecutionError

        p0 = RankProgram(rank=0)
        p1 = RankProgram(rank=1)
        p1.add(SendOp(peer=0, blocks=(1,)))
        p0.add(RecvOp(peer=1, blocks=(0,)))  # wrong slot
        p0.add(SendOp(peer=1, blocks=(0,)))
        p1.add(RecvOp(peer=0, blocks=(0,)))
        with pytest.raises(ExecutionError, match="blocks"):
            verify(make([p0, p1], 2, 2, "allgather"))

    def test_reduce_into_garbage_rejected(self):
        p0 = RankProgram(rank=0)
        p1 = RankProgram(rank=1)
        p1.add(SendOp(peer=0, blocks=(1,)))
        # In a bcast, rank 0 has no valid contribution to reduce into at
        # block 1 of a non-root rank... build a gather-style case instead:
        p0.add(RecvOp(peer=1, blocks=(1,), reduce=True))
        with pytest.raises(ValidationError, match="garbage"):
            verify(make([p0, p1], 2, 2, "gather", 0))


class TestRealSchedules:
    @pytest.mark.parametrize("p", [1, 2, 5, 9, 16, 17])
    @pytest.mark.parametrize(
        "collective,algorithm,k",
        [
            ("bcast", "knomial", 3),
            ("reduce", "knomial", 4),
            ("allgather", "recursive_multiplying", 3),
            ("allreduce", "kring", 4),
            ("reduce_scatter", "kring", 4),
        ],
    )
    def test_real_schedules_verify(self, p, collective, algorithm, k):
        report = verify(build_schedule(collective, algorithm, p, k=k))
        assert report.delivered_messages >= 0

    def test_report_contains_description(self):
        report = verify(build_schedule("bcast", "binomial", 8))
        assert "bcast" in report.schedule
