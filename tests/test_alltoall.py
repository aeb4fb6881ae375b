"""Tests for all-to-all algorithms (:mod:`repro.core.alltoall`)."""

import numpy as np
import pytest

import repro
from repro.core.alltoall import alltoall_block, bruck_alltoall, pairwise_alltoall
from repro.core.primitives import ilog
from repro.core.validate import verify
from repro.errors import ScheduleError
from repro.runtime.session import Session
from oracle import SendOp, programs_of


class TestBlockIds:
    def test_row_major(self):
        assert alltoall_block(2, 1, 4) == 9
        assert alltoall_block(0, 0, 4) == 0
        assert alltoall_block(3, 3, 4) == 15

    def test_out_of_range(self):
        with pytest.raises(ScheduleError):
            alltoall_block(4, 0, 4)


class TestPairwise:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13, 16])
    def test_verifies(self, p):
        verify(pairwise_alltoall(p))

    @pytest.mark.parametrize("p", [2, 5, 8, 13])
    def test_moves_real_data(self, p):
        repro.execute("alltoall", "pairwise", p=p, count=2 * p * p + 3)

    def test_each_block_moves_exactly_once(self):
        p = 8
        sched = pairwise_alltoall(p)
        sent = []
        for prog in programs_of(sched):
            for _, op in prog.iter_ops():
                if isinstance(op, SendOp):
                    sent.extend(op.blocks)
        # every off-diagonal block exactly once
        expected = sorted(
            alltoall_block(s, d, p)
            for s in range(p)
            for d in range(p)
            if s != d
        )
        assert sorted(sent) == expected

    def test_round_count(self):
        sched = pairwise_alltoall(7)
        for prog in programs_of(sched):
            assert len(prog.steps) == 6


class TestBruck:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 9, 13, 16, 17])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_verifies(self, p, k):
        verify(bruck_alltoall(p, k))

    @pytest.mark.parametrize("p", [2, 5, 8, 13])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_moves_real_data(self, p, k):
        repro.execute("alltoall", "bruck", p=p, count=2 * p * p + 3, k=k)

    def test_round_count_is_log_k_p(self):
        for p, k in [(16, 2), (16, 4), (13, 3), (100, 10)]:
            sched = bruck_alltoall(p, k)
            for prog in programs_of(sched):
                assert len(prog.steps) == ilog(k, p)

    def test_forwarding_volume_exceeds_pairwise(self):
        """Bruck's price: total block transfers grow by up to log_k(p)."""
        p = 16
        def total_blocks(sched):
            return sum(
                len(op.blocks)
                for prog in programs_of(sched)
                for _, op in prog.iter_ops()
                if isinstance(op, SendOp)
            )

        direct = total_blocks(pairwise_alltoall(p))
        routed = total_blocks(bruck_alltoall(p, 2))
        assert routed > direct
        assert routed <= direct * ilog(2, p)

    def test_naming(self):
        assert bruck_alltoall(8, 2).algorithm == "bruck"
        assert bruck_alltoall(8, 4).algorithm == "bruck_kport"

    def test_aggregation(self):
        """Bruck messages carry many blocks; pairwise carries one."""
        sched = bruck_alltoall(16, 2)
        sizes = [
            len(op.blocks)
            for prog in programs_of(sched)
            for _, op in prog.iter_ops()
            if isinstance(op, SendOp)
        ]
        assert max(sizes) == 8  # half the p-block set in round 0


class TestSessionAlltoall:
    def test_alltoall_through_session(self):
        def worker(comm):
            data = np.array(
                [comm.rank * 10 + d for d in range(comm.size)],
                dtype=np.int64,
            )
            return comm.alltoall(data).tolist()

        results = Session(4).run(worker)
        # rank j receives chunk j of every rank: [0j, 1j, 2j, 3j]
        for j, row in enumerate(results):
            assert row == [s * 10 + j for s in range(4)]

    def test_non_divisible_rejected(self):
        from repro.errors import ExecutionError

        def worker(comm):
            return comm.alltoall(np.zeros(5, dtype=np.int64))

        with pytest.raises(ExecutionError):
            Session(4, timeout=5.0).run(worker)


class TestModels:
    def test_pairwise_model_matches_reference_sim(self):
        from repro.core.registry import build_schedule
        from repro.models import ModelParams, pairwise_alltoall_time
        from repro.simnet import reference, simulate

        p, n = 16, 1 << 18
        machine = reference(p)
        params = ModelParams(machine.alpha_inter, machine.beta_inter)
        predicted = pairwise_alltoall_time(n, p, params)
        simulated = simulate(
            build_schedule("alltoall", "pairwise", p), machine, n
        ).time
        assert simulated == pytest.approx(predicted, rel=0.05)

    def test_bruck_model_crossover_direction(self):
        from repro.models import (
            ModelParams,
            bruck_alltoall_time,
            pairwise_alltoall_time,
        )

        params = ModelParams(2e-6, 1e-9)
        p = 64
        # tiny: bruck wins; huge: pairwise wins
        assert bruck_alltoall_time(4096, p, 2, params) < (
            pairwise_alltoall_time(4096, p, params)
        )
        big = 1 << 30
        assert pairwise_alltoall_time(big, p, params) < (
            bruck_alltoall_time(big, p, 2, params)
        )
