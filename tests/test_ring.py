"""Tests for ring and k-ring (:mod:`repro.core.ring`)."""

import pytest

from repro.core.ring import (
    kring_allgather,
    kring_allreduce,
    kring_bcast,
    kring_groups,
    kring_reduce_scatter,
    ring_allgather,
    ring_allreduce,
    ring_bcast,
    ring_reduce_scatter,
)
from repro.core.validate import verify
from repro.errors import ScheduleError
from oracle import RecvOp, SendOp, programs_of

from conftest import INTERESTING_P


class TestGroups:
    def test_even_groups(self):
        assert kring_groups(6, 3) == [[0, 1, 2], [3, 4, 5]]

    def test_remainder_group(self):
        assert kring_groups(7, 3) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_k1_singletons(self):
        assert kring_groups(4, 1) == [[0], [1], [2], [3]]

    def test_k_at_least_p_single_group(self):
        assert kring_groups(5, 5) == [[0, 1, 2, 3, 4]]
        assert kring_groups(5, 99) == [[0, 1, 2, 3, 4]]

    def test_groups_partition_ranks(self):
        for p in INTERESTING_P:
            for k in range(1, p + 2):
                groups = kring_groups(p, k)
                flat = [r for g in groups for r in g]
                assert flat == list(range(p))

    def test_invalid_k(self):
        with pytest.raises(ScheduleError):
            kring_groups(4, 0)


class TestKRingAllgather:
    @pytest.mark.parametrize("p", INTERESTING_P)
    def test_verifies_across_all_k(self, p):
        for k in range(1, p + 2):
            verify(kring_allgather(p, k))

    def test_round_structure_matches_paper(self):
        """p = 6, k = 3 (paper Fig. 6): every rank runs 5 rounds —
        2 intra, 1 inter, 2 intra."""
        sched = kring_allgather(6, 3)
        for prog in programs_of(sched):
            assert len(prog.steps) == 5

    def test_k1_and_kp_both_reduce_to_classic_ring(self):
        """Both degenerate radices must produce a 5-round neighbor ring on
        6 ranks with identical per-rank message counts."""
        for k in (1, 6):
            sched = kring_allgather(6, k)
            assert sched.algorithm == "ring"
            for prog in programs_of(sched):
                assert len(prog.steps) == 5
                for step in prog.steps:
                    sends = step.sends
                    assert len(sends) == 1
                    # neighbor-only communication
                    assert sends[0].peer in (
                        (prog.rank + 1) % 6,
                        (prog.rank - 1) % 6,
                    )

    def test_neighbor_only_communication(self):
        """k | p: every message goes to the intra-ring or inter-ring
        neighbor — never further."""
        p, k = 12, 4
        groups = kring_groups(p, k)
        neighbor_ok = set()
        for grp in groups:
            s = len(grp)
            for i, r in enumerate(grp):
                neighbor_ok.add((r, grp[(i + 1) % s]))
        g = len(groups)
        for j, grp in enumerate(groups):
            nxt = groups[(j + 1) % g]
            for i, r in enumerate(grp):
                for i2 in range(len(nxt)):
                    if i2 % len(grp) == i:
                        neighbor_ok.add((r, nxt[i2]))
        sched = kring_allgather(p, k)
        for prog in programs_of(sched):
            for _, op in prog.iter_ops():
                if isinstance(op, SendOp):
                    assert (prog.rank, op.peer) in neighbor_ok

    def test_each_block_received_exactly_once(self):
        for p, k in [(8, 4), (9, 4), (7, 3), (12, 5)]:
            sched = kring_allgather(p, k)
            for prog in programs_of(sched):
                got = []
                for _, op in prog.iter_ops():
                    if isinstance(op, RecvOp):
                        got.extend(op.blocks)
                assert sorted(got) == [b for b in range(p) if b != prog.rank]

    def test_uneven_groups_verify(self):
        # p = 7, k = 3 → groups of 3, 3, 1: the §VI-A corner case.
        sched = kring_allgather(7, 3)
        assert sched.meta["groups"] == [3, 3, 1]
        verify(sched)


class TestKRingComposites:
    @pytest.mark.parametrize("p", [1, 2, 3, 6, 7, 8, 12, 16])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_allreduce_verifies(self, p, k):
        verify(kring_allreduce(p, k))

    @pytest.mark.parametrize("p", [1, 2, 6, 7, 12])
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_reduce_scatter_verifies(self, p, k):
        verify(kring_reduce_scatter(p, k))

    @pytest.mark.parametrize("p", [1, 2, 6, 7, 12])
    def test_bcast_verifies(self, p):
        for k in (1, 3, p):
            verify(kring_bcast(p, k, root=p - 1))

    def test_allreduce_composition_structure(self):
        sched = kring_allreduce(8, 4)
        assert sched.collective == "allreduce"
        assert "phases" in sched.meta


class TestClassicRing:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13])
    def test_all_classic_variants_verify(self, p):
        verify(ring_allgather(p))
        verify(ring_allreduce(p))
        verify(ring_reduce_scatter(p))
        verify(ring_bcast(p, root=p - 1))

    def test_classic_ring_has_no_radix(self):
        assert ring_allgather(8).k is None
        assert ring_allgather(8).algorithm == "ring"

    def test_ring_allreduce_is_2p_minus_2_rounds(self):
        """Patarasuk–Yuan: (p-1) reduce-scatter + (p-1) allgather rounds."""
        sched = ring_allreduce(6)
        for prog in programs_of(sched):
            assert len(prog.steps) == 10
