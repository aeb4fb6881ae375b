"""Tests for baseline algorithms (:mod:`repro.core.baselines`)."""

import pytest

from repro.core.baselines import (
    linear_bcast,
    linear_gather,
    linear_reduce,
    linear_scatter,
    recursive_halving_reduce_scatter,
    reduce_scatter_allgather_allreduce,
    reduce_scatter_gather_reduce,
    scatter_allgather_bcast,
)
from repro.core.validate import verify
from repro.errors import ScheduleError
from oracle import programs_of


class TestLinear:
    @pytest.mark.parametrize("p", [1, 2, 5, 8])
    @pytest.mark.parametrize(
        "builder", [linear_bcast, linear_reduce, linear_gather, linear_scatter]
    )
    def test_verifies(self, p, builder):
        for root in {0, p - 1}:
            verify(builder(p, root=root))

    def test_linear_bcast_is_fully_sequential(self):
        """The naive bcast sends one message per step — no overlap at all
        (that's what makes it the (p-1)(α+βn) strawman of §III-B)."""
        sched = linear_bcast(6)
        root_prog = programs_of(sched)[0]
        assert len(root_prog.steps) == 5
        for step in root_prog.steps:
            assert len(step.ops) == 1

    def test_linear_reduce_reduces_at_root(self):
        sched = linear_reduce(4)
        recvs = [
            op
            for _, op in programs_of(sched)[0].iter_ops()
        ]
        assert all(getattr(op, "reduce", False) for op in recvs)

    def test_invalid_root(self):
        with pytest.raises(ScheduleError):
            linear_bcast(4, root=4)


class TestComposites:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 12, 16, 17])
    def test_scatter_allgather_bcast_verifies(self, p):
        verify(scatter_allgather_bcast(p, root=p // 2))

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 12, 16, 17])
    def test_rabenseifner_allreduce_verifies(self, p):
        verify(reduce_scatter_allgather_allreduce(p))

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 12, 16, 17])
    def test_recursive_halving_reduce_scatter_verifies(self, p):
        verify(recursive_halving_reduce_scatter(p))

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 12, 16, 17])
    def test_rabenseifner_reduce_verifies(self, p):
        for root in {0, p - 1}:
            verify(reduce_scatter_gather_reduce(p, root=root))

    def test_rabenseifner_composition_metadata(self):
        sched = reduce_scatter_allgather_allreduce(8)
        assert sched.collective == "allreduce"
        assert sched.algorithm == "reduce_scatter_allgather"
        assert len(sched.meta["phases"]) == 2

    def test_rabenseifner_reduce_shrinks_root_inbound_volume(self):
        """The whole point of Rabenseifner: the root's inbound data drops
        from the binomial tree's log2(p)·n to ~2n(p-1)/p."""
        from repro.core.knomial import knomial_reduce
        from oracle import RecvOp

        n = 8 * 64

        def root_recv_units(sched):
            bm = sched.block_map(n)
            return sum(
                bm.bytes_of(op.blocks)
                for _, op in programs_of(sched)[0].iter_ops()
                if isinstance(op, RecvOp)
            )

        rsg = root_recv_units(reduce_scatter_gather_reduce(8))
        binomial = root_recv_units(knomial_reduce(8, 2))
        assert binomial == 3 * n  # log2(8) full vectors
        assert rsg <= 2 * n  # halving rounds + gathered blocks
        assert rsg < binomial
