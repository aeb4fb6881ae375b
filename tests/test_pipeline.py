"""Tests for the pipelined chain broadcast (:mod:`repro.core.pipeline`)."""

import pytest

from repro.core.pipeline import chain_bcast, optimal_segments
from repro.core.validate import verify
from repro.errors import ScheduleError
from repro.models import ModelParams, chain_bcast_time
import repro
from repro.simnet import reference, simulate
from oracle import programs_of


class TestSchedule:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 16])
    @pytest.mark.parametrize("segments", [1, 2, 4, 7])
    def test_verifies(self, p, segments):
        for root in {0, p - 1}:
            verify(chain_bcast(p, segments, root=root))

    @pytest.mark.parametrize("p", [2, 5, 9])
    @pytest.mark.parametrize("segments", [1, 3, 8])
    def test_moves_real_data(self, p, segments):
        repro.execute("bcast", "pipelined_chain", p=p,
                      count=2 * segments + 3, k=segments, root=p - 1)

    def test_chain_structure(self):
        """Rank r only ever talks to r-1 and r+1 (relative to the root)."""
        sched = chain_bcast(6, 3)
        from oracle import RecvOp, SendOp

        for prog in programs_of(sched):
            for _, op in prog.iter_ops():
                if isinstance(op, (SendOp, RecvOp)):
                    assert abs(op.peer - prog.rank) == 1

    def test_single_segment_is_plain_chain(self):
        sched = chain_bcast(4, 1)
        assert sched.algorithm == "chain"
        assert sched.nblocks == 1

    def test_invalid_segments(self):
        with pytest.raises(ScheduleError):
            chain_bcast(4, 0)


class TestPipelineEffect:
    def test_segmentation_hides_chain_latency(self):
        """The whole point: at large n, many segments beat one."""
        p, n = 16, 1 << 20
        machine = reference(p)
        t1 = simulate(chain_bcast(p, 1), machine, n).time
        t16 = simulate(chain_bcast(p, 16), machine, n).time
        assert t16 < t1 / 2

    def test_u_shaped_segment_curve(self):
        """Too few segments → serialized chain; too many → α per segment.
        The optimum sits in between."""
        p, n = 16, 1 << 18
        machine = reference(p)
        times = {
            s: simulate(chain_bcast(p, s), machine, n).time
            for s in (1, 8, 64, 4096)
        }
        assert times[8] < times[1]
        assert times[64] < times[4096]

    def test_model_matches_simulation_on_reference(self):
        p, n, s = 8, 1 << 16, 4
        machine = reference(p)
        params = ModelParams(machine.alpha_inter, machine.beta_inter)
        predicted = chain_bcast_time(n, p, s, params)
        simulated = simulate(chain_bcast(p, s), machine, n).time
        # steady-state pipeline: the model is exact on the overhead-free
        # machine (each hop of each segment costs α + βn/S, fully
        # overlapped across the chain)
        assert simulated == pytest.approx(predicted, rel=0.05)


class TestOptimalSegments:
    def test_closed_form_near_swept_optimum(self):
        p, n = 16, 1 << 18
        machine = reference(p)
        s_star = optimal_segments(n, p, machine.alpha_inter,
                                  machine.beta_inter)
        t_star = simulate(chain_bcast(p, s_star), machine, n).time
        # the closed form must be within 10% of a fine sweep's best
        best = min(
            simulate(chain_bcast(p, s), machine, n).time
            for s in (1, 2, 4, 8, 16, 32, 64, 128, 256)
        )
        assert t_star <= best * 1.10

    def test_degenerate_cases(self):
        assert optimal_segments(0, 8, 1e-6, 1e-9) == 1
        assert optimal_segments(1 << 20, 2, 1e-6, 1e-9) == 1
        assert optimal_segments(1 << 20, 1, 1e-6, 1e-9) == 1

    def test_grows_with_message_size(self):
        s_small = optimal_segments(1 << 10, 32, 2e-6, 4e-11)
        s_big = optimal_segments(1 << 24, 32, 2e-6, 4e-11)
        assert s_big > s_small

    def test_invalid_inputs(self):
        with pytest.raises(ScheduleError):
            optimal_segments(100, 0, 1e-6, 1e-9)
        with pytest.raises(ScheduleError):
            optimal_segments(100, 8, 0.0, 1e-9)
