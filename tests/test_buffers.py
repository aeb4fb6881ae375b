"""Tests for buffer conventions (:mod:`repro.runtime.buffers`)."""

import hashlib
import itertools

import numpy as np
import pytest

from repro.core.blocks import BlockMap
from repro.core.registry import build_schedule, info
from repro.errors import ExecutionError
from repro.runtime.buffers import (
    GARBAGE,
    check_outputs,
    checked_slots,
    initial_buffers,
    make_inputs,
    reference_result,
)
from repro.runtime.ops import MAX, SUM


COLLECTIVES = ("bcast", "scatter", "gather", "allgather", "reduce",
               "allreduce", "reduce_scatter", "alltoall")

#: sha256 of every draw over :data:`COLLECTIVES` x p in {1, 4, 7} x
#: count in {0, 17, 64} x {int64, int32, float64} x seeds {0, 1}, root
#: p - 1; recorded while ``make_inputs`` still copied every int64 draw
#: through ``astype``, so the stream and its casts are pinned.
INPUTS_SHA256 = (
    "fa3c6c8f7b46ac2cff755e7b4cc435fd396bd53721e1833e5d8e8d0a7619695e"
)

#: One registry algorithm per collective for the buffer-layout tests.
LAYOUT_ALGORITHMS = {
    "bcast": "binomial", "scatter": "binomial", "gather": "binomial",
    "allgather": "ring", "reduce": "binomial", "allreduce": "ring",
    "reduce_scatter": "ring", "alltoall": "pairwise",
}


def _defined(coll: str, p: int, count: int, root: int) -> np.ndarray:
    """``(p, count)`` mask of the slots the inputs define: the root's
    buffer (bcast/scatter), each rank's own block (gather family), every
    slot (reduce family), each rank's own row (alltoall)."""
    mask = np.zeros((p, count), dtype=bool)
    blocks = BlockMap(count, p)
    grid = BlockMap(count, p * p)
    for r in range(p):
        if coll in ("bcast", "scatter"):
            mask[r] = r == root
        elif coll in ("gather", "allgather"):
            mask[r, slice(*blocks.range_of(r))] = True
        elif coll in ("reduce", "allreduce", "reduce_scatter"):
            mask[r] = True
        else:
            for d in range(p):
                mask[r, slice(*grid.range_of(r * p + d))] = True
    return mask


class TestMakeInputs:
    def test_bcast_only_root_has_data(self):
        inputs = make_inputs("bcast", 4, 10, root=2)
        assert len(inputs[2]) == 10
        for r in (0, 1, 3):
            assert len(inputs[r]) == 0

    def test_allgather_block_sized_contributions(self):
        inputs = make_inputs("allgather", 4, 10)
        assert [len(x) for x in inputs] == [3, 3, 2, 2]

    def test_reduce_full_vectors(self):
        inputs = make_inputs("allreduce", 3, 7)
        assert all(len(x) == 7 for x in inputs)

    def test_seeded_determinism(self):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        a = make_inputs("allreduce", 2, 5, rng=rng1)
        b = make_inputs("allreduce", 2, 5, rng=rng2)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_unknown_collective(self):
        with pytest.raises(ExecutionError):
            make_inputs("alltoallw", 2, 4)

    def test_draws_are_pinned(self):
        """The data did not move: same calls, same stream, same casts."""
        digest = hashlib.sha256()
        for coll, p, count, dtype, seed in itertools.product(
            COLLECTIVES, (1, 4, 7), (0, 17, 64),
            ("int64", "int32", "float64"), (0, 1),
        ):
            for x in make_inputs(coll, p, count, dtype=np.dtype(dtype),
                                 root=p - 1,
                                 rng=np.random.default_rng(seed)):
                digest.update(f"{x.dtype.str}{x.shape}".encode())
                digest.update(x.tobytes())
        assert digest.hexdigest() == INPUTS_SHA256


class TestInitialBuffers:
    def test_undefined_slots_are_poisoned(self):
        """On every collective, each slot the inputs leave undefined holds
        the :data:`GARBAGE` fill (wrapped into narrow dtypes), the defined
        slots hold the rank's input in order, and a reduce-family buffer
        is its input."""
        p, count, root = 5, 23, 3
        for coll, dtype in itertools.product(
            COLLECTIVES, (np.dtype(np.int64), np.dtype(np.int8))
        ):
            alg = LAYOUT_ALGORITHMS[coll]
            sched = build_schedule(
                coll, alg, p, root=root if info(coll, alg).takes_root else 0
            )
            inputs = make_inputs(coll, p, count, dtype=dtype, root=root)
            bufs = initial_buffers(sched, inputs, count, dtype=dtype)
            defined = _defined(coll, p, count, root)
            garbage = np.array(GARBAGE).astype(dtype)
            for r, buf in enumerate(bufs):
                where = (coll, dtype.name, r)
                assert buf.dtype == dtype and len(buf) == count, where
                assert (buf[~defined[r]] == garbage).all(), where
                assert np.array_equal(buf[defined[r]], inputs[r]), where
                if coll in ("reduce", "allreduce", "reduce_scatter"):
                    assert np.array_equal(buf, inputs[r]), where

    def test_allgather_blocks_placed(self):
        sched = build_schedule("allgather", "ring", 4)
        inputs = make_inputs("allgather", 4, 8)
        bufs = initial_buffers(sched, inputs, 8)
        assert np.array_equal(bufs[1][2:4], inputs[1])

    def test_wrong_input_length_rejected(self):
        sched = build_schedule("allreduce", "recursive_doubling", 2)
        with pytest.raises(ExecutionError, match="elements"):
            initial_buffers(sched, [np.zeros(3), np.zeros(4)], 4)


class TestReference:
    def test_bcast(self):
        inputs = [np.arange(4), np.empty(0)]
        exp = reference_result("bcast", inputs, 4, root=0)
        assert np.array_equal(exp[1], np.arange(4))

    def test_reduce_sum(self):
        inputs = [np.array([1, 2]), np.array([3, 4])]
        exp = reference_result("reduce", inputs, 2, op=SUM, root=1)
        assert list(exp) == [1]
        assert exp[1].tolist() == [4, 6]

    def test_allreduce_max(self):
        inputs = [np.array([1, 9]), np.array([5, 2])]
        exp = reference_result("allreduce", inputs, 2, op=MAX)
        assert exp[0].tolist() == [5, 9]

    def test_reduce_scatter_blocks(self):
        inputs = [np.arange(4), np.arange(4)]
        exp = reference_result("reduce_scatter", inputs, 4, op=SUM)
        assert exp[0].tolist() == [0, 2]  # first block of doubled arange
        assert exp[1].tolist() == [4, 6]

    def test_scatter(self):
        inputs = [np.arange(6), np.empty(0), np.empty(0)]
        exp = reference_result("scatter", inputs, 6, root=0)
        assert exp[1].tolist() == [2, 3]

    def test_gather_only_defines_root(self):
        inputs = [np.array([0]), np.array([1]), np.array([2])]
        exp = reference_result("gather", inputs, 3, root=2)
        assert list(exp) == [2]


class TestCheckedSlots:
    def test_rooted_collectives_constrain_root_only(self):
        assert list(checked_slots("reduce", 4, root=3)) == [3]

    def test_symmetric_collectives_constrain_everyone(self):
        assert sorted(checked_slots("allreduce", 3)) == [0, 1, 2]


class TestCheckOutputs:
    def test_detects_mismatch_with_location(self):
        sched = build_schedule("bcast", "binomial", 2)
        good = np.arange(4, dtype=np.int64)
        bad = good.copy()
        bad[2] = 99
        with pytest.raises(ExecutionError, match="elements \\[2\\]"):
            check_outputs(sched, [good, bad], {0: good, 1: good}, 4)

    def test_tolerance_for_floats(self):
        sched = build_schedule("bcast", "binomial", 2)
        a = np.array([1.0, 2.0])
        b = a + 1e-12
        check_outputs(sched, [a, b], {0: a, 1: a}, 2, rtol=1e-9)

    def test_scatter_checks_own_block_only(self):
        sched = build_schedule("scatter", "binomial", 2)
        bufs = [np.array([7, 8]), np.array([0, 8])]
        # rank 1's block is [8]; the garbage in slot 0 must be ignored
        check_outputs(sched, bufs, {0: np.array([7]), 1: np.array([8])}, 2)
