"""Tests for k-nomial tree structure and schedules (:mod:`repro.core.knomial`)."""

import pytest

from repro.core.knomial import (
    knomial_allgather,
    knomial_allreduce,
    knomial_bcast,
    knomial_gather,
    knomial_reduce,
    knomial_scatter,
    knomial_tree,
)
from repro.core.primitives import ilog
from repro.core.validate import verify
from repro.errors import ScheduleError
from oracle import programs_of

from conftest import INTERESTING_K, INTERESTING_P


def parents(p, k):
    """Relative parent per relative rank, ``None`` for the root."""
    return [None if r == 0 else r_parent
            for r, r_parent in enumerate(knomial_tree(p, k)[1].tolist())]


def children(relr, p, k):
    """``(child, mask)`` of ``relr`` from :func:`knomial_tree`, in the
    bcast's send order: largest mask first, then by rank."""
    attach, parent = (a.tolist() for a in knomial_tree(p, k))
    return sorted(((c, attach[c]) for c in range(1, p) if parent[c] == relr),
                  key=lambda cm: (-cm[1], cm[0]))


def subtree(relr, p, k):
    """Half-open relative-rank interval of ``relr``'s subtree."""
    return relr, min(relr + int(knomial_tree(p, k)[0][relr]), p)


class TestTreeStructure:
    def test_trinomial_parents_match_paper_figure(self):
        """Fig. 2: trinomial tree on 9 nodes — 0 roots {1,2,3,6}, 3 roots
        {4,5}, 6 roots {7,8}."""
        assert parents(9, 3) == [None, 0, 0, 0, 3, 3, 0, 6, 6]

    def test_binomial_parents(self):
        assert parents(8, 2) == [None, 0, 0, 2, 0, 4, 4, 6]

    def test_children_inverse_of_parent(self):
        for p in INTERESTING_P:
            for k in INTERESTING_K:
                parent = parents(p, k)
                for r in range(p):
                    for child, _ in children(r, p, k):
                        assert parent[child] == r

    def test_every_nonroot_has_exactly_one_parent(self):
        for p in INTERESTING_P:
            for k in INTERESTING_K:
                seen = {}
                for r in range(p):
                    for child, _ in children(r, p, k):
                        assert child not in seen
                        seen[child] = r
                assert sorted(seen) == list(range(1, p))

    def test_depth_is_max_nonzero_digit_count(self):
        """Walking to the parent zeroes a node's lowest nonzero base-k
        digit, so each node's depth is its count of nonzero digits and the
        tree depth is the maximum over ranks — always ≤ ⌈log_k p⌉ (the
        round count the cost models charge)."""

        def nonzero_digits(r: int, k: int) -> int:
            count = 0
            while r:
                if r % k:
                    count += 1
                r //= k
            return count

        for p in INTERESTING_P:
            for k in INTERESTING_K:
                parent = parents(p, k)
                depth = 0
                for r in range(p):
                    d = 0
                    node = r
                    while parent[node] is not None:
                        node = parent[node]
                        d += 1
                    assert d == nonzero_digits(r, k)
                    depth = max(depth, d)
                assert depth <= ilog(k, p)

    def test_subtrees_partition_ranks(self):
        for p in INTERESTING_P:
            for k in INTERESTING_K:
                # children subtrees of the root partition [1, p)
                covered = []
                for child, _ in children(0, p, k):
                    lo, hi = subtree(child, p, k)
                    covered.extend(range(lo, hi))
                assert sorted(covered) == list(range(1, p))

    def test_root_subtree_is_everything(self):
        assert subtree(0, 9, 3) == (0, 9)
        assert subtree(0, 17, 4) == (0, 17)

    def test_attach_mask_of_root_reaches_p(self):
        assert knomial_tree(9, 3)[0][0] >= 9

    def test_children_ordered_largest_mask_first(self):
        """The bcast sends to the root's children in that order."""
        root = programs_of(knomial_bcast(9, 3))[0]
        sends = [op.peer for step in root.steps for op in step.ops]
        assert sends == [c for c, _ in children(0, 9, 3)]
        masks = [m for _, m in children(0, 9, 3)]
        assert masks == sorted(masks, reverse=True)


class TestSchedules:
    @pytest.mark.parametrize("p", INTERESTING_P)
    @pytest.mark.parametrize("k", INTERESTING_K)
    def test_bcast_verifies_all_roots(self, p, k):
        for root in {0, p // 2, p - 1}:
            verify(knomial_bcast(p, k, root=root))

    @pytest.mark.parametrize("p", INTERESTING_P)
    @pytest.mark.parametrize("k", INTERESTING_K)
    def test_reduce_verifies(self, p, k):
        verify(knomial_reduce(p, k, root=p - 1))

    @pytest.mark.parametrize("p", INTERESTING_P)
    @pytest.mark.parametrize("k", INTERESTING_K)
    def test_gather_scatter_verify(self, p, k):
        verify(knomial_gather(p, k, root=p // 2))
        verify(knomial_scatter(p, k, root=p // 2))

    @pytest.mark.parametrize("p", INTERESTING_P)
    @pytest.mark.parametrize("k", INTERESTING_K)
    def test_composites_verify(self, p, k):
        verify(knomial_allgather(p, k))
        verify(knomial_allreduce(p, k))

    def test_message_count_is_p_minus_1_per_phase(self):
        """A tree moves exactly p-1 messages (bcast) regardless of radix."""
        for k in INTERESTING_K:
            sched = knomial_bcast(17, k)
            assert sched.stats().messages == 16

    def test_step_concurrency_bounded_by_k_minus_1(self):
        """No step posts more than k-1 sends (one tree level at a time)."""
        for p in [16, 27]:
            for k in [3, 4]:
                sched = knomial_bcast(p, k)
                for prog in programs_of(sched):
                    for step in prog.steps:
                        assert len(step.sends) <= k - 1

    def test_radix_of_p_gives_flat_tree(self):
        """k >= p: root sends to everyone in one concurrent step."""
        sched = knomial_bcast(8, 8)
        root_prog = programs_of(sched)[0]
        assert len(root_prog.steps) == 1
        assert len(root_prog.steps[0].sends) == 7

    def test_binomial_naming(self):
        assert knomial_bcast(8, 2).algorithm == "binomial"
        assert knomial_bcast(8, 3).algorithm == "knomial"

    def test_invalid_radix_rejected(self):
        with pytest.raises(ScheduleError):
            knomial_bcast(8, 1)

    def test_invalid_root_rejected(self):
        with pytest.raises(ScheduleError):
            knomial_bcast(8, 2, root=8)

    def test_bcast_nblocks_parameterized(self):
        sched = knomial_bcast(4, 2, nblocks=4)
        assert sched.nblocks == 4
        # every message carries all four blocks
        for prog in programs_of(sched):
            for _, op in prog.iter_ops():
                assert op.blocks == (0, 1, 2, 3)

    def test_single_rank_is_empty(self):
        sched = knomial_bcast(1, 2)
        assert all(not prog.steps for prog in programs_of(sched))
