"""Tests for recursive doubling/multiplying (:mod:`repro.core.recursive`)."""

import pytest

from repro.core.recursive import (
    radix_schedule,
    recursive_doubling_allgather,
    recursive_doubling_allreduce,
    recursive_doubling_bcast,
    recursive_multiplying_allgather,
    recursive_multiplying_allreduce,
    recursive_multiplying_bcast,
    smooth_core,
)
from repro.core.validate import verify
from repro.errors import ScheduleError
from oracle import programs_of

from conftest import INTERESTING_K, INTERESTING_P


class TestSmoothCore:
    def test_power_of_k_is_its_own_core(self):
        assert smooth_core(16, 2) == 16
        assert smooth_core(27, 3) == 27

    def test_mixed_composites_avoid_folding(self):
        # 12 = 4·3 is 4-smooth even though it is not a power of 4.
        assert smooth_core(12, 4) == 12
        assert smooth_core(24, 4) == 24

    def test_prime_above_radix_folds(self):
        assert smooth_core(17, 4) == 16
        assert smooth_core(31, 2) == 16  # 17..31 all have a factor > 2? no:
        # 31 is prime; largest 2-smooth <= 31 is 32/2=16? 16, 24? 24=2^3*3
        # has factor 3 > 2 → not 2-smooth. Correct answer is 16.

    def test_odd_square_not_2_smooth(self):
        assert smooth_core(9, 2) == 8

    def test_k_at_least_p_means_no_fold(self):
        for p in INTERESTING_P:
            assert smooth_core(p, max(p, 2)) == p

    def test_invalid_inputs(self):
        with pytest.raises(ScheduleError):
            smooth_core(0, 2)
        with pytest.raises(ScheduleError):
            smooth_core(8, 1)


class TestRadixSchedule:
    def test_power_of_two(self):
        assert radix_schedule(8, 2) == (2, 2, 2)

    def test_greedy_largest_divisor(self):
        assert radix_schedule(12, 4) == (4, 3)
        assert radix_schedule(128, 4) == (4, 4, 4, 2)

    def test_product_equals_core(self):
        for p in INTERESTING_P:
            for k in INTERESTING_K:
                q = smooth_core(p, k)
                radices = radix_schedule(q, k)
                prod = 1
                for r in radices:
                    prod *= r
                assert prod == q
                assert all(2 <= r <= k for r in radices)

    def test_trivial_core(self):
        assert radix_schedule(1, 4) == ()

    def test_non_smooth_rejected(self):
        with pytest.raises(ScheduleError):
            radix_schedule(7, 4)


class TestSchedules:
    @pytest.mark.parametrize("p", INTERESTING_P)
    @pytest.mark.parametrize("k", INTERESTING_K)
    def test_allreduce_verifies(self, p, k):
        verify(recursive_multiplying_allreduce(p, k))

    @pytest.mark.parametrize("p", INTERESTING_P)
    @pytest.mark.parametrize("k", INTERESTING_K)
    def test_allgather_verifies(self, p, k):
        verify(recursive_multiplying_allgather(p, k))

    @pytest.mark.parametrize("p", INTERESTING_P)
    @pytest.mark.parametrize("k", INTERESTING_K)
    def test_bcast_verifies(self, p, k):
        verify(recursive_multiplying_bcast(p, k, root=p - 1))

    def test_doubling_is_radix_2(self):
        assert recursive_doubling_allreduce(16).k == 2
        assert recursive_doubling_allgather(16).algorithm == "recursive_doubling"
        assert recursive_doubling_bcast(16).algorithm == "recursive_doubling"

    def test_round_count_power_of_k(self):
        """On k^m ranks every rank runs exactly m butterfly steps."""
        sched = recursive_multiplying_allreduce(27, 3)
        assert sched.meta["radices"] == [3, 3, 3]
        for prog in programs_of(sched):
            assert len(prog.steps) == 3

    def test_fold_adds_pre_and_post_steps(self):
        """p = 17, k = 4: core 16, one folded rank → core partner gains a
        fold and an unfold step; the folded rank has exactly 2 steps."""
        sched = recursive_multiplying_allreduce(17, 4)
        assert sched.meta == {"core": 16, "folded": 1, "radices": [4, 4]}
        folded_prog = programs_of(sched)[16]
        assert len(folded_prog.steps) == 2  # fold send + unfold recv
        partner_prog = programs_of(sched)[0]
        assert len(partner_prog.steps) == 4  # fold + 2 rounds + unfold

    def test_heavily_folded_case(self):
        """p = 15, k = 2: core 8, seven folded ranks, one per partner."""
        sched = recursive_multiplying_allreduce(15, 2)
        assert sched.meta["core"] == 8
        assert sched.meta["folded"] == 7
        verify(sched)

    def test_allreduce_exchanges_full_vector(self):
        sched = recursive_multiplying_allreduce(9, 3)
        assert sched.nblocks == 1

    def test_allgather_message_volume_is_optimal(self):
        """Total blocks received per rank = p-1 for power-of-k p (each
        block enters each rank exactly once — no redundant traffic)."""
        from oracle import RecvOp

        sched = recursive_multiplying_allgather(16, 4)
        for prog in programs_of(sched):
            got = []
            for _, op in prog.iter_ops():
                if isinstance(op, RecvOp):
                    got.extend(op.blocks)
            assert sorted(got) == [b for b in range(16) if b != prog.rank]

    def test_butterfly_concurrency_is_2k_minus_2(self):
        sched = recursive_multiplying_allreduce(16, 4)
        stats = sched.stats()
        assert stats.max_concurrent_ops == 2 * (4 - 1)

    def test_invalid_radix(self):
        with pytest.raises(ScheduleError):
            recursive_multiplying_allreduce(8, 1)

    def test_single_rank(self):
        sched = recursive_multiplying_allreduce(1, 4)
        assert all(not prog.steps for prog in programs_of(sched))
