"""Tests for rank remapping and hierarchical allreduce
(:mod:`repro.core.hierarchical`)."""

import numpy as np
import pytest

from repro.core.hierarchical import hierarchical_allreduce, remap_ranks
from repro.core.knomial import knomial_bcast
from repro.core.validate import verify
from repro.errors import ScheduleError
from repro.runtime.buffers import (
    check_outputs,
    initial_buffers,
    make_inputs,
    reference_result,
)
from repro.runtime.executor import execute
from repro.simnet import frontier, simulate
from oracle import programs_of


class TestRemap:
    def test_embeds_group_into_larger_space(self):
        small = knomial_bcast(3, 2, root=0)
        big = remap_ranks(small, [4, 1, 6], 8)
        assert big.nranks == 8
        assert big.root == 4
        # unmapped ranks are idle
        programs = programs_of(big)
        for r in (0, 2, 3, 5, 7):
            assert not programs[r].steps
        # peers follow the mapping
        peers = {
            op.peer
            for _, op in programs[4].iter_ops()
        }
        assert peers <= {1, 6}

    def test_identity_mapping_preserves_schedule(self):
        sched = knomial_bcast(4, 2)
        same = remap_ranks(sched, [0, 1, 2, 3], 4)
        assert [p.steps for p in programs_of(same)] == [
            p.steps for p in programs_of(sched)
        ]

    def test_non_injective_rejected(self):
        with pytest.raises(ScheduleError, match="injective"):
            remap_ranks(knomial_bcast(3, 2), [0, 1, 1], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ScheduleError):
            remap_ranks(knomial_bcast(3, 2), [0, 1, 5], 4)

    def test_wrong_length_rejected(self):
        with pytest.raises(ScheduleError):
            remap_ranks(knomial_bcast(3, 2), [0, 1], 4)

    def test_remapped_schedule_verifies(self):
        """A bcast among a scattered subset is still a valid bcast on that
        subset (rebuilt as a full-space schedule with idle ranks, the
        postcondition only constrains mapped ranks — here checked via a
        composition that reaches all ranks)."""
        sched = hierarchical_allreduce(12, 3)
        verify(sched)


class TestHierarchicalAllreduce:
    @pytest.mark.parametrize(
        "nodes,ppn", [(1, 1), (1, 8), (8, 1), (4, 4), (3, 5), (8, 8)]
    )
    @pytest.mark.parametrize(
        "leader_alg,leader_k",
        [("recursive_doubling", None), ("recursive_multiplying", 4),
         ("knomial", 3)],
    )
    def test_verifies_and_computes(self, nodes, ppn, leader_alg, leader_k):
        p = nodes * ppn
        sched = hierarchical_allreduce(
            p, ppn, leader_algorithm=leader_alg, leader_k=leader_k
        )
        verify(sched)
        inputs = make_inputs("allreduce", p, 9)
        bufs = initial_buffers(sched, inputs, 9)
        execute(sched, bufs)
        check_outputs(
            sched, bufs, reference_result("allreduce", inputs, 9), 9
        )

    def test_requires_divisible_ppn(self):
        with pytest.raises(ScheduleError, match="divide"):
            hierarchical_allreduce(10, 3)

    def test_rejects_block_partitioned_leader_algorithm(self):
        with pytest.raises(ScheduleError, match="whole-buffer"):
            hierarchical_allreduce(16, 4, leader_algorithm="ring")

    def test_metadata(self):
        sched = hierarchical_allreduce(16, 4, intra_k=4,
                                       leader_algorithm="knomial",
                                       leader_k=2)
        assert sched.meta["ppn"] == 4
        assert sched.meta["leader_algorithm"] == "knomial"
        assert sched.algorithm == "hierarchical"

    def test_only_leaders_touch_the_network(self):
        """Every internode message must be between node leaders — the
        point of the composition."""
        from oracle import SendOp

        ppn = 4
        machine = frontier(4, ppn)
        sched = hierarchical_allreduce(16, ppn)
        leaders = {0, 4, 8, 12}
        for prog in programs_of(sched):
            for _, op in prog.iter_ops():
                if isinstance(op, SendOp) and not machine.same_node(
                    prog.rank, op.peer
                ):
                    assert prog.rank in leaders
                    assert op.peer in leaders

    def test_beats_flat_algorithms_at_medium_sizes(self):
        """On a hierarchical machine, the two-level composition should
        beat flat whole-vector algorithms at latency/medium sizes (fewer
        NIC crossings of full vectors)."""
        from repro.core.registry import build_schedule

        machine = frontier(8, 8)
        p = machine.nranks
        hier = hierarchical_allreduce(
            p, 8, leader_algorithm="recursive_multiplying", leader_k=4
        )
        flat = build_schedule("allreduce", "recursive_doubling", p)
        for n in (1024, 65536):
            assert (
                simulate(hier, machine, n).time
                < simulate(flat, machine, n).time
            )
