"""Tests for reduction operators (:mod:`repro.runtime.ops`)."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.runtime.ops import (
    ALL_OPS,
    BAND,
    BOR,
    BXOR,
    LAND,
    LOR,
    MAX,
    MIN,
    PROD,
    SUM,
    by_name,
)


class TestApply:
    def test_sum_in_place(self):
        acc = np.array([1, 2, 3], dtype=np.int64)
        SUM.apply(acc, np.array([10, 20, 30], dtype=np.int64))
        assert acc.tolist() == [11, 22, 33]

    def test_max_min(self):
        acc = np.array([5, 1], dtype=np.int64)
        MAX.apply(acc, np.array([3, 9], dtype=np.int64))
        assert acc.tolist() == [5, 9]
        MIN.apply(acc, np.array([4, 4], dtype=np.int64))
        assert acc.tolist() == [4, 4]

    def test_prod(self):
        acc = np.array([2, 3], dtype=np.int64)
        PROD.apply(acc, np.array([5, 7], dtype=np.int64))
        assert acc.tolist() == [10, 21]

    def test_bitwise(self):
        acc = np.array([0b1100], dtype=np.int64)
        BAND.apply(acc, np.array([0b1010], dtype=np.int64))
        assert acc.tolist() == [0b1000]
        BOR.apply(acc, np.array([0b0011], dtype=np.int64))
        assert acc.tolist() == [0b1011]
        BXOR.apply(acc, np.array([0b1111], dtype=np.int64))
        assert acc.tolist() == [0b0100]

    def test_logical(self):
        acc = np.array([0, 2, 0], dtype=np.int64)
        LOR.apply(acc, np.array([0, 0, 5], dtype=np.int64))
        assert acc.tolist() == [0, 1, 1]
        acc2 = np.array([1, 1, 0], dtype=np.int64)
        LAND.apply(acc2, np.array([1, 0, 1], dtype=np.int64))
        assert acc2.tolist() == [1, 0, 0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ExecutionError, match="shape"):
            SUM.apply(np.zeros(3), np.zeros(4))

    def test_bitwise_rejects_floats(self):
        with pytest.raises(ExecutionError, match="integer"):
            BAND.apply(np.zeros(2), np.zeros(2))

    def test_sum_works_on_floats(self):
        acc = np.array([0.5])
        SUM.apply(acc, np.array([0.25]))
        assert acc[0] == 0.75


DTYPES = ("int8", "int32", "int64", "uint8", "float32", "float64")

#: Every operator on every dtype it is defined on.
OP_DTYPES = [
    pytest.param(op, np.dtype(dt), id=f"{op.name}-{dt}")
    for op in ALL_OPS
    for dt in DTYPES
    if not (op.integer_only and dt.startswith("float"))
]

#: ``(op, acc dtype, incoming dtype)`` where the result needs a cast
#: back into ``acc``: wrapping narrow integers and a rounded float.
MIXED = [
    pytest.param(op, np.dtype(a), np.dtype(b), id=f"{op.name}-{a}-{b}")
    for op in ALL_OPS
    for a, b in (("int32", "int64"), ("uint8", "int64"),
                 ("float32", "float64"))
    if not (op.integer_only and a.startswith("float"))
]

#: 1 MiB accumulators for every operator: :meth:`ReduceOp.apply` runs
#: each, the logical ones included, as an in-place ufunc.
ALLOCATION_CASES = [
    pytest.param(op, np.dtype(dt), id=f"{op.name}-{dt}")
    for op in ALL_OPS
    for dt in ("int64", "float64")
    if not (op.integer_only and dt == "float64")
]


def _draw(dtype: np.dtype, n: int, seed: int) -> np.ndarray:
    """Values across an integer dtype's whole range (sums and products
    wrap), or moderate floats (no overflow)."""
    rng = np.random.default_rng(seed)
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return rng.integers(info.min, info.max, size=n, endpoint=True,
                            dtype=dtype)
    return (rng.standard_normal(n) * 1e3).astype(dtype)


def _assigned(op, acc, incoming):
    """The assignment form ``apply`` used to run: a temporary, then a
    copy back into the accumulator."""
    out = acc.copy()
    out[...] = op.fn(out, incoming)
    return out


class TestInPlace:
    """``apply`` reduces into ``acc``'s own buffer and leaves exactly what
    ``acc[...] = fn(acc, incoming)`` left."""

    @pytest.mark.parametrize("op,dtype", OP_DTYPES)
    def test_equals_the_assignment_form(self, op, dtype):
        acc = _draw(dtype, 257, seed=1)
        incoming = _draw(dtype, 257, seed=2)
        want = _assigned(op, acc, incoming)
        where = acc.__array_interface__["data"][0]
        op.apply(acc, incoming)
        assert acc.dtype == dtype
        assert acc.__array_interface__["data"][0] == where
        assert acc.tobytes() == want.tobytes()

    def test_integer_overflow_wraps(self):
        acc = np.array([127, -128, 100], dtype=np.int8)
        SUM.apply(acc, np.array([1, -1, 100], dtype=np.int8))
        assert acc.tolist() == [-128, 127, -56]
        PROD.apply(acc, np.array([2, 2, 3], dtype=np.int8))
        assert acc.tolist() == [0, -2, 88]

    @pytest.mark.parametrize("op,acc_dtype,in_dtype", MIXED)
    def test_incoming_of_another_dtype(self, op, acc_dtype, in_dtype):
        acc = _draw(acc_dtype, 257, seed=3)
        incoming = _draw(in_dtype, 257, seed=4)
        want = _assigned(op, acc, incoming)
        op.apply(acc, incoming)
        assert acc.dtype == acc_dtype
        assert acc.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op", [LAND, LOR], ids=lambda op: op.name)
    @pytest.mark.parametrize("acc_dtype,in_dtype", [
        (a, b) for a in DTYPES + ("bool",) for b in ("int64", "float64", a)
    ])
    def test_logical_ops_equal_their_former_casts(self, op, acc_dtype,
                                                  in_dtype):
        """LAND / LOR were ``(a.astype(bool) OP b.astype(bool))`` cast
        back to ``a``'s dtype: the ufuncs leave the same bytes, zeros,
        NaN and −0.0 included."""
        former = {
            "land": lambda a, b: (a.astype(bool) & b.astype(bool)),
            "lor": lambda a, b: (a.astype(bool) | b.astype(bool)),
        }[op.name]
        acc = _draw(np.dtype(acc_dtype), 257, seed=7)
        incoming = _draw(np.dtype(in_dtype), 257, seed=8)
        acc[::5] = 0
        incoming[::3] = 0
        if np.issubdtype(acc.dtype, np.floating):
            acc[1], acc[2] = np.nan, -0.0
        want = former(acc, incoming).astype(acc.dtype)
        op.apply(acc, incoming)
        assert acc.dtype == np.dtype(acc_dtype)
        assert acc.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op,dtype", ALLOCATION_CASES)
    def test_allocates_nothing_of_acc_size(self, op, dtype):
        acc = _draw(dtype, (1 << 20) // dtype.itemsize, seed=5)
        incoming = _draw(dtype, acc.size, seed=6)
        tracemalloc.start()
        try:
            op.apply(acc, incoming)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < acc.nbytes, (peak, acc.nbytes)


class TestAlgebra:
    def test_idempotence_flags_are_true(self):
        x = np.array([3, 7, 0], dtype=np.int64)
        for op in ALL_OPS:
            if op.idempotent:
                acc = x.copy()
                op.apply(acc, x)
                assert np.array_equal(acc, op.fn(x, x)), op.name

    def test_commutativity(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 50, 16)
        b = rng.integers(0, 50, 16)
        for op in ALL_OPS:
            ab = a.copy()
            op.apply(ab, b)
            ba = b.copy()
            op.apply(ba, a)
            assert np.array_equal(ab, ba), op.name

    def test_associativity(self):
        rng = np.random.default_rng(2)
        a, b, c = (rng.integers(0, 9, 8) for _ in range(3))
        for op in ALL_OPS:
            left = a.copy()
            op.apply(left, b)
            op.apply(left, c)
            bc = b.copy()
            op.apply(bc, c)
            right = a.copy()
            op.apply(right, bc)
            assert np.array_equal(left, right), op.name


class TestReduceAll:
    def test_reduce_all_orders_left_to_right(self):
        parts = tuple(np.array([i], dtype=np.int64) for i in range(5))
        assert SUM.reduce_all(parts).tolist() == [10]

    def test_reduce_all_does_not_mutate_inputs(self):
        a = np.array([1], dtype=np.int64)
        SUM.reduce_all((a, np.array([2], dtype=np.int64)))
        assert a[0] == 1

    def test_reduce_all_empty_rejected(self):
        with pytest.raises(ExecutionError):
            SUM.reduce_all(())


class TestByName:
    def test_roundtrip(self):
        for op in ALL_OPS:
            assert by_name(op.name) is op

    def test_case_insensitive(self):
        assert by_name("SUM") is SUM

    def test_unknown(self):
        with pytest.raises(ExecutionError, match="unknown"):
            by_name("avg")
