"""Tests for allgather → reduce-scatter dualization
(:mod:`repro.core.primitives.dualize_allgather`)."""

import pytest

from repro.core.knomial import knomial_allgather
from repro.core.primitives import dualize_allgather
from repro.core.recursive import recursive_multiplying_allgather
from repro.core.ring import kring_allgather, ring_allgather
from repro.core.validate import verify
from repro.errors import ScheduleError
from oracle import RankProgram, RecvOp, SendOp, from_programs, programs_of


class TestDualization:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 9, 12, 16, 17])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_dual_of_recursive_multiplying_verifies(self, p, k):
        dual = dualize_allgather(
            recursive_multiplying_allgather(p, k), "recmul_dual"
        )
        assert dual.collective == "reduce_scatter"
        verify(dual)

    @pytest.mark.parametrize("p", [1, 2, 3, 6, 7, 12])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_dual_of_kring_verifies(self, p, k):
        verify(dualize_allgather(kring_allgather(p, k), "kring_dual"))

    def test_dual_reverses_message_count(self):
        ag = ring_allgather(8)
        dual = dualize_allgather(ag, "ring_dual")
        assert dual.stats().messages == ag.stats().messages

    def test_all_dual_receives_reduce(self):
        dual = dualize_allgather(ring_allgather(6), "ring_dual")
        for prog in programs_of(dual):
            for _, op in prog.iter_ops():
                if isinstance(op, RecvOp):
                    assert op.reduce

    def test_step_order_reversed(self):
        ag = ring_allgather(5)
        dual = dualize_allgather(ag, "d")
        for prog, dprog in zip(programs_of(ag), programs_of(dual)):
            assert len(prog.steps) == len(dprog.steps)
            # first allgather send becomes last dual receive
            first_send = prog.steps[0].sends[0]
            last_recv = dprog.steps[-1].recvs[-1]
            assert first_send.peer == last_recv.peer
            assert first_send.blocks == last_recv.blocks

    def test_rejects_non_allgather(self):
        from repro.core.knomial import knomial_bcast

        with pytest.raises(ScheduleError, match="allgather"):
            dualize_allgather(knomial_bcast(4, 2), "x")

    def test_rejects_redundant_delivery(self):
        """The k-nomial allgather re-broadcasts every block, including
        blocks ranks already contributed — dualizing it would double-count
        and must be refused."""
        with pytest.raises(ScheduleError, match="more than once"):
            dualize_allgather(knomial_allgather(4, 2), "bad")

    def test_rejects_hand_built_double_receive(self):
        p0 = RankProgram(rank=0)
        p1 = RankProgram(rank=1)
        p1.add(SendOp(peer=0, blocks=(1,)))
        p1.add(SendOp(peer=0, blocks=(1,)))
        p0.add(RecvOp(peer=1, blocks=(1,)))
        p0.add(RecvOp(peer=1, blocks=(1,)))
        p0.add(SendOp(peer=1, blocks=(0,)))
        p1.add(RecvOp(peer=0, blocks=(0,)))
        sched = from_programs(
            collective="allgather",
            algorithm="redundant",
            nranks=2,
            nblocks=2,
            programs=[p0, p1],
        )
        with pytest.raises(ScheduleError, match="more than once"):
            dualize_allgather(sched, "bad")
