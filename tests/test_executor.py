"""Tests for the NumPy data executor (:mod:`repro.runtime.executor`).

These are end-to-end correctness tests: real bytes through real schedules,
checked against NumPy oracles — the Python equivalent of the paper's
"largest burden was ensuring correctness for the many corner cases"
(§VI-A).
"""

import numpy as np
import pytest

import repro
from repro.core.registry import COLLECTIVES, algorithms_for, info
from repro.errors import ExecutionError
from repro.runtime.executor import execute
from repro.runtime.threaded import execute_threaded
from repro.runtime.ops import BXOR, MAX, MIN, PROD, SUM


def all_algorithm_cases():
    """(collective, algorithm, entry) for every data-moving registry
    entry (barrier carries no payload, so it has no data oracle — its
    correctness lives in the symbolic layer, see test_bruck.py)."""
    cases = []
    for coll in COLLECTIVES:
        if coll == "barrier":
            continue
        for alg in algorithms_for(coll):
            cases.append((coll, alg, info(coll, alg)))
    return cases


class TestEveryAlgorithmMovesDataCorrectly:
    @pytest.mark.parametrize(
        "coll,alg,entry",
        [pytest.param(c, a, e, id=f"{c}-{a}") for c, a, e in all_algorithm_cases()],
    )
    def test_representative_grid(self, coll, alg, entry):
        """Every registered algorithm on a grid covering power-of-k,
        prime, and remainder process counts, with non-dividing counts."""
        for p in (2, 5, 8, 9, 13, 16):
            ks = [None]
            if entry.takes_k:
                ks = sorted({entry.min_k, 3, 4, p})
                ks = [k for k in ks if k >= entry.min_k]
            for k in ks:
                repro.execute(coll, alg, p=p, count=3 * p + 1, k=k)

    def test_count_smaller_than_ranks(self):
        """Zero-size blocks (count < p) must not corrupt anything."""
        for coll, alg, entry in all_algorithm_cases():
            k = entry.default_k if entry.takes_k else None
            repro.execute(coll, alg, p=8, count=3, k=k)

    def test_single_element(self):
        repro.execute("allreduce", "recursive_multiplying", p=9, count=1, k=3)

    def test_single_rank(self):
        for coll in ("bcast", "allreduce", "allgather", "reduce"):
            alg = sorted(algorithms_for(coll))[0]
            k = info(coll, alg).default_k if info(coll, alg).takes_k else None
            repro.execute(coll, alg, p=1, count=5, k=k)


class TestOperators:
    @pytest.mark.parametrize("op", [SUM, PROD, MAX, MIN, BXOR], ids=lambda o: o.name)
    def test_allreduce_with_every_operator(self, op):
        # PROD overflows fast: keep values tiny via a custom run
        run = repro.execute(
            "allreduce", "recursive_multiplying", p=6, count=8, k=3, op=op,
            check=False,
        )
        from repro.runtime.buffers import check_outputs, reference_result

        expected = reference_result("allreduce", run.inputs, 8, op=op)
        check_outputs(run.schedule, run.buffers, expected, 8)

    def test_noncommutative_order_is_deterministic(self):
        """Two identical runs must produce bit-identical results (receive
        application order is fixed)."""
        a = repro.execute("allreduce", "kring", p=7, count=9, k=3, seed=5)
        b = repro.execute("allreduce", "kring", p=7, count=9, k=3, seed=5)
        for x, y in zip(a.buffers, b.buffers):
            assert np.array_equal(x, y)


class TestDtypes:
    def test_float64_with_tolerance(self):
        repro.execute(
            "allreduce",
            "reduce_scatter_allgather",
            p=8,
            count=16,
            dtype=np.dtype(np.float64),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_int32(self):
        repro.execute(
            "allgather", "ring", p=6, count=12, dtype=np.dtype(np.int32)
        )

    def test_float32(self):
        repro.execute(
            "bcast", "knomial", p=9, count=10, k=3,
            dtype=np.dtype(np.float32),
        )


class TestExecuteAPI:
    def test_execute_in_place(self):
        from repro.core.registry import build_schedule

        sched = build_schedule("allreduce", "recursive_doubling", 4)
        bufs = [np.full(4, r, dtype=np.int64) for r in range(4)]
        out = execute(sched, bufs)
        assert out is bufs
        for buf in bufs:
            assert buf.tolist() == [6, 6, 6, 6]

    def test_buffer_count_mismatch(self):
        from repro.core.registry import build_schedule

        sched = build_schedule("allreduce", "recursive_doubling", 4)
        with pytest.raises(ExecutionError, match="buffers"):
            execute(sched, [np.zeros(4)] * 3)

    def test_buffer_length_mismatch(self):
        from repro.core.registry import build_schedule

        sched = build_schedule("allreduce", "recursive_doubling", 2)
        with pytest.raises(ExecutionError, match="elements"):
            execute(sched, [np.zeros(4), np.zeros(5)])

    def test_root_rotation_moves_result(self):
        run = repro.execute("reduce", "knomial", p=7, count=7, k=3, root=4)
        assert 4 in run.expected
        assert np.array_equal(run.buffers[4], run.expected[4])

    def test_run_result_exposes_schedule(self):
        run = repro.execute("bcast", "binomial", p=4, count=4)
        assert run.schedule.collective == "bcast"
        assert len(run.inputs) == 4


class TestOneBufferCheck:
    """Both backends refuse what is not one buffer per rank, all of one
    length, with one message."""

    @staticmethod
    def _refusals(buffers):
        sched = repro.build("allreduce", "recursive_doubling", p=4)
        texts = []
        for run in (execute, execute_threaded):
            with pytest.raises(ExecutionError) as info:
                run(sched, [buf.copy() for buf in buffers])
            texts.append(str(info.value))
        return texts

    @pytest.mark.parametrize("length", [12, 4], ids=["longer", "shorter"])
    def test_unequal_lengths(self, length):
        buffers = [np.zeros(8, np.int64) for _ in range(4)]
        buffers[2] = np.zeros(length, np.int64)
        assert self._refusals(buffers) == [
            f"rank 2 buffer has {length} elements, rank 0 has 8"
        ] * 2

    def test_buffer_count(self):
        buffers = [np.zeros(8, np.int64) for _ in range(3)]
        assert self._refusals(buffers) == ["need 4 buffers, got 3"] * 2
