"""Tests for the Bruck-family extensions (:mod:`repro.core.bruck`)."""

import pytest

import repro
from repro.core.bruck import bruck_allgather, bruck_window, dissemination_barrier
from repro.core.primitives import dualize_allgather, ilog
from repro.core.registry import build_schedule
from repro.core.validate import verify
from repro.errors import ScheduleError
from oracle import programs_of


class TestWindow:
    def test_wraps_mod_p(self):
        assert bruck_window(5, 3, 6) == (5, 0, 1)

    def test_full_window(self):
        assert bruck_window(2, 4, 4) == (2, 3, 0, 1)

    def test_invalid_size(self):
        with pytest.raises(ScheduleError):
            bruck_window(0, 0, 4)
        with pytest.raises(ScheduleError):
            bruck_window(0, 5, 4)


class TestBruckAllgather:
    @pytest.mark.parametrize("p", list(range(1, 20)) + [27, 32])
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_verifies(self, p, k):
        verify(bruck_allgather(p, k))

    @pytest.mark.parametrize("p", [2, 5, 7, 9, 13, 16, 17])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_moves_real_data(self, p, k):
        repro.execute("allgather", "bruck", p=p, count=3 * p + 1, k=k)

    def test_round_count_is_ceil_log_k_p(self):
        """The Bruck structural advantage: exactly ⌈log_k p⌉ rounds for
        ANY p — the recursive multiplying fold would add two extra steps
        for e.g. p = 17."""
        for p, k in [(17, 4), (13, 2), (100, 3)]:
            sched = bruck_allgather(p, k)
            for prog in programs_of(sched):
                assert len(prog.steps) == ilog(k, p)

    def test_fewer_rounds_than_folded_recmul_on_awkward_p(self):
        p, k = 17, 4
        bruck_steps = len(programs_of(bruck_allgather(p, k))[0].steps)
        recmul = build_schedule("allgather", "recursive_multiplying", p, k=k)
        recmul_steps = max(len(prog.steps) for prog in programs_of(recmul))
        assert bruck_steps < recmul_steps

    def test_each_block_received_once_makes_it_dualizable(self):
        for p in (5, 8, 13):
            dual = dualize_allgather(bruck_allgather(p, 3), "bruck_dual")
            verify(dual)

    def test_symmetry(self):
        """Every rank's program has identical shape (Bruck is fully
        rank-symmetric, unlike rooted trees)."""
        sched = bruck_allgather(12, 3)
        shapes = {
            tuple(len(step.ops) for step in prog.steps)
            for prog in programs_of(sched)
        }
        assert len(shapes) == 1

    def test_naming(self):
        assert bruck_allgather(8, 2).algorithm == "bruck"
        assert bruck_allgather(8, 4).algorithm == "bruck_kport"

    def test_single_rank(self):
        sched = bruck_allgather(1, 2)
        assert all(not prog.steps for prog in programs_of(sched))


class TestDisseminationBarrier:
    @pytest.mark.parametrize("p", list(range(1, 20)) + [31, 32])
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_verifies(self, p, k):
        verify(dissemination_barrier(p, k))

    def test_round_count(self):
        for p, k in [(8, 2), (9, 3), (17, 4), (100, 10)]:
            sched = dissemination_barrier(p, k)
            for prog in programs_of(sched):
                assert len(prog.steps) == ilog(k, p)

    def test_marked_idempotent_only(self):
        """Non-power-of-k truncation overlaps heard-from sets; the marker
        is what licenses the validator to accept that."""
        sched = dissemination_barrier(10, 3)
        assert sched.meta["idempotent_only"] is True

    def test_overlap_actually_occurs_for_non_powers(self):
        """Strip the marker from a p where truncation overlaps: the
        validator must then reject — proving the marker is load-bearing,
        not decorative."""
        from repro.errors import ValidationError

        sched = dissemination_barrier(6, 2)
        sched.meta.pop("idempotent_only")
        with pytest.raises(ValidationError, match="double-count"):
            verify(sched)

    def test_power_of_k_has_no_overlap(self):
        """For p = k^m the dissemination sets are perfectly disjoint, so
        the schedule passes even without the marker."""
        sched = dissemination_barrier(8, 2)
        sched.meta.pop("idempotent_only")
        verify(sched)

    def test_registry_builds_both_variants(self):
        assert build_schedule("barrier", "dissemination", 9).k == 2
        assert build_schedule("barrier", "k_dissemination", 9, k=3).k == 3

    def test_simulated_barrier_latency_shrinks_with_radix(self):
        from repro.simnet import reference, simulate

        p = 64
        machine = reference(p)
        t2 = simulate(build_schedule("barrier", "k_dissemination", p, k=2),
                      machine, 0).time
        t8 = simulate(build_schedule("barrier", "k_dissemination", p, k=8),
                      machine, 0).time
        assert t8 < t2

    def test_model_matches_simulation_on_reference(self):
        from repro.models import ModelParams, model_time
        from repro.simnet import reference, simulate

        p = 27
        machine = reference(p)
        params = ModelParams(machine.alpha_inter, machine.beta_inter)
        predicted = model_time("barrier", "k_dissemination", 0, p, params, k=3)
        simulated = simulate(
            build_schedule("barrier", "k_dissemination", p, k=3), machine, 0
        ).time
        assert simulated == pytest.approx(predicted, rel=0.02)
