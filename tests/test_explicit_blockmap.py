"""Tests for :class:`repro.core.blocks.ExplicitBlockMap` and the
block-map override path through the executor and simulator (the machinery
behind the v-variant collectives)."""

import numpy as np
import pytest

from repro.core.blocks import BlockMap, ExplicitBlockMap
from repro.core.registry import build_schedule
from repro.errors import ExecutionError, MachineError, ScheduleError
from repro.runtime.executor import execute
from repro.simnet import reference, simulate


class TestExplicitBlockMap:
    def test_interface_matches_blockmap(self):
        even = BlockMap(12, 4)
        explicit = ExplicitBlockMap(even.sizes)
        assert explicit.total == even.total
        assert explicit.offsets == even.offsets
        for b in range(4):
            assert explicit.range_of(b) == even.range_of(b)
            assert explicit.size_of(b) == even.size_of(b)

    def test_uneven_and_zero_blocks(self):
        bm = ExplicitBlockMap((3, 0, 5))
        assert bm.total == 8
        assert bm.range_of(1) == (3, 3)
        assert bm.range_of(2) == (3, 8)
        assert bm.bytes_of([0, 2]) == 8

    def test_slices_tile_buffer(self):
        bm = ExplicitBlockMap((2, 7, 0, 1))
        pos = 0
        for _, start, stop in bm.slices():
            assert start == pos
            pos = stop
        assert pos == bm.total

    def test_rejections(self):
        with pytest.raises(ScheduleError):
            ExplicitBlockMap(())
        with pytest.raises(ScheduleError):
            ExplicitBlockMap((1, -1))
        with pytest.raises(ScheduleError):
            ExplicitBlockMap((1, 2)).range_of(2)


class TestExecutorOverride:
    def make_gatherv(self, counts, algorithm="binomial", root=0):
        p = len(counts)
        bm = ExplicitBlockMap(counts)
        sched = build_schedule("gather", algorithm, p, root=root)
        bufs = [np.full(bm.total, -7, dtype=np.int64) for _ in range(p)]
        inputs = []
        for r in range(p):
            start, stop = bm.range_of(r)
            data = np.arange(counts[r], dtype=np.int64) + 100 * r
            bufs[r][start:stop] = data
            inputs.append(data)
        execute(sched, bufs, block_map=bm)
        return bufs, np.concatenate(inputs) if inputs else np.empty(0), root

    @pytest.mark.parametrize("counts", [(3, 0, 5, 2), (1, 1, 1), (4,),
                                        (0, 0, 6, 0, 2)])
    def test_gatherv_through_binomial_tree(self, counts):
        bufs, expected, root = self.make_gatherv(counts)
        assert np.array_equal(bufs[root], expected)

    def test_gatherv_with_knomial_and_rotation(self):
        counts = (2, 5, 0, 3, 1)
        bm = ExplicitBlockMap(counts)
        sched = build_schedule("gather", "knomial", 5, k=3, root=2)
        bufs = [np.full(bm.total, -7, dtype=np.int64) for _ in range(5)]
        expected = []
        for r in range(5):
            start, stop = bm.range_of(r)
            data = np.arange(counts[r], dtype=np.int64) + 10 * r
            bufs[r][start:stop] = data
            expected.append(data)
        execute(sched, bufs, block_map=bm)
        assert np.array_equal(bufs[2], np.concatenate(expected))

    def test_scatterv_through_tree(self):
        counts = (1, 4, 2)
        bm = ExplicitBlockMap(counts)
        sched = build_schedule("scatter", "binomial", 3)
        flat = np.arange(bm.total, dtype=np.int64)
        bufs = [flat.copy() if r == 0 else np.zeros(bm.total, dtype=np.int64)
                for r in range(3)]
        execute(sched, bufs, block_map=bm)
        for r in range(3):
            start, stop = bm.range_of(r)
            assert np.array_equal(bufs[r][start:stop], flat[start:stop])

    def test_block_count_mismatch_rejected(self):
        sched = build_schedule("gather", "binomial", 4)
        bm = ExplicitBlockMap((2, 2))  # wrong nblocks
        with pytest.raises(ExecutionError, match="blocks"):
            execute(sched, [np.zeros(4, dtype=np.int64) for _ in range(4)],
                    block_map=bm)

    def test_total_mismatch_rejected(self):
        sched = build_schedule("gather", "binomial", 2)
        bm = ExplicitBlockMap((2, 2))
        with pytest.raises(ExecutionError, match="covers"):
            execute(sched, [np.zeros(9, dtype=np.int64) for _ in range(2)],
                    block_map=bm)


class TestSimulatorOverride:
    def test_uneven_blocks_change_simulated_cost(self):
        """Concentrating the bytes on one contributor changes tree-edge
        loads — the simulator must price the explicit map, not the even
        split."""
        p = 8
        sched = build_schedule("gather", "binomial", p)
        machine = reference(p)
        even = simulate(sched, machine, 8000).time
        skewed = simulate(
            sched,
            machine,
            8000,
            block_map=ExplicitBlockMap((8000 - 7,) + (1,) * 7),
        ).time
        assert skewed != even

    def test_block_count_mismatch_rejected(self):
        sched = build_schedule("gather", "binomial", 4)
        with pytest.raises(MachineError, match="blocks"):
            simulate(
                sched, reference(4), 8, block_map=ExplicitBlockMap((4, 4))
            )
