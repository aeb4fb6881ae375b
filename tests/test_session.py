"""Tests for the MPI-style session facade (:mod:`repro.runtime.session`)."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.runtime.ops import MAX, SUM
from repro.runtime.session import Comm, Session
from repro.selection import fixed_policy, tune
from repro.selection.defaults import mpich_policy


class TestCollectives:
    def test_allreduce(self):
        def worker(comm: Comm):
            local = np.full(4, comm.rank + 1, dtype=np.int64)
            return comm.allreduce(local).tolist()

        results = Session(4).run(worker)
        assert all(r == [10, 10, 10, 10] for r in results)

    def test_allreduce_max(self):
        def worker(comm: Comm):
            return comm.allreduce(
                np.array([comm.rank], dtype=np.int64), op=MAX
            )[0]

        assert Session(5).run(worker) == [4] * 5

    def test_bcast_with_template(self):
        def worker(comm: Comm):
            if comm.rank == 2:
                return comm.bcast(np.arange(6, dtype=np.int64), root=2).tolist()
            return comm.bcast(np.zeros(6, dtype=np.int64), root=2).tolist()

        assert Session(4).run(worker) == [[0, 1, 2, 3, 4, 5]] * 4

    def test_bcast_with_count_and_dtype(self):
        def worker(comm: Comm):
            if comm.rank == 0:
                return comm.bcast(np.array([0.5, 1.5]), root=0).tolist()
            return comm.bcast(None, root=0, count=2, dtype=np.float64).tolist()

        assert Session(3).run(worker) == [[0.5, 1.5]] * 3

    def test_reduce_returns_none_off_root(self):
        def worker(comm: Comm):
            out = comm.reduce(np.array([comm.rank], dtype=np.int64), root=1)
            return None if out is None else out.tolist()

        results = Session(4).run(worker)
        assert results[1] == [6]
        assert results[0] is None and results[2] is None

    def test_gather_scatter_roundtrip(self):
        def worker(comm: Comm):
            gathered = comm.gather(
                np.array([comm.rank * 10, comm.rank * 10 + 1], dtype=np.int64),
                root=0,
            )
            # root scatters the gathered buffer right back
            if comm.rank == 0:
                assert gathered is not None
                mine = comm.scatter(gathered, root=0)
            else:
                mine = comm.scatter(None, root=0)
            return mine.tolist()

        results = Session(4).run(worker)
        assert results == [[0, 1], [10, 11], [20, 21], [30, 31]]

    def test_allgather(self):
        def worker(comm: Comm):
            return comm.allgather(
                np.array([comm.rank], dtype=np.int64)
            ).tolist()

        assert Session(5).run(worker) == [[0, 1, 2, 3, 4]] * 5

    def test_reduce_scatter(self):
        def worker(comm: Comm):
            full = np.arange(8, dtype=np.int64)
            return comm.reduce_scatter(full, op=SUM).tolist()

        results = Session(4).run(worker)
        expected_full = (np.arange(8) * 4).tolist()
        assert results == [expected_full[0:2], expected_full[2:4],
                           expected_full[4:6], expected_full[6:8]]

    def test_barrier_completes(self):
        import time

        entered = []

        def worker(comm: Comm):
            entered.append(comm.rank)
            comm.barrier()
            return len(entered)

        results = Session(6).run(worker)
        # after the barrier every rank must observe all 6 entries
        assert all(r == 6 for r in results)

    def test_sequence_of_collectives(self):
        """Multiple collectives back to back keep their channels straight."""

        def worker(comm: Comm):
            a = comm.allreduce(np.array([1], dtype=np.int64))[0]
            comm.barrier()
            b = comm.allgather(np.array([comm.rank], dtype=np.int64)).sum()
            c = comm.bcast(
                np.array([a + b], dtype=np.int64) if comm.rank == 0 else
                np.zeros(1, dtype=np.int64),
                root=0,
            )[0]
            return int(c)

        p = 4
        results = Session(p).run(worker)
        assert results == [p + sum(range(p))] * p


class TestSelectionIntegration:
    def test_pinned_algorithm_is_used(self):
        """A fixed policy steers the session onto a specific generalized
        algorithm — and the answers stay right."""
        table = fixed_policy("allreduce", "recursive_multiplying", 4)
        table.fallback["barrier"] = mpich_policy().fallback["barrier"]

        def worker(comm: Comm):
            return comm.allreduce(
                np.full(3, comm.rank, dtype=np.int64)
            ).tolist()

        results = Session(8, table=table).run(worker)
        assert results == [[28, 28, 28]] * 8

    def test_tuned_table_drives_session(self):
        from repro.simnet import frontier

        table = tune(frontier(8, 1), [8, 4096]).table

        def worker(comm: Comm):
            return int(comm.allreduce(np.array([2], dtype=np.int64))[0])

        assert Session(8, table=table).run(worker) == [16] * 8


class TestErrors:
    def test_rank_failure_propagates(self):
        def worker(comm: Comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(ExecutionError, match="rank 1 failed"):
            Session(3, timeout=5.0).run(worker)

    def test_mismatched_collectives_time_out(self):
        """Rank 0 calls a collective the others never join."""

        def worker(comm: Comm):
            if comm.rank == 0:
                comm.allreduce(np.array([1], dtype=np.int64))
            return comm.rank

        with pytest.raises(ExecutionError):
            Session(2, timeout=0.5).run(worker)

    def test_bcast_without_root_data(self):
        def worker(comm: Comm):
            return comm.bcast(None, root=0, count=2)

        with pytest.raises(ExecutionError):
            Session(2, timeout=5.0).run(worker)

    def test_single_rank_session(self):
        def worker(comm: Comm):
            return comm.allreduce(np.array([7], dtype=np.int64))[0]

        assert Session(1).run(worker) == [7]

    def test_invalid_nranks(self):
        with pytest.raises(ExecutionError):
            Session(0)


class TestSplit:
    def test_split_by_parity(self):
        def worker(comm):
            sub = comm.split(comm.rank % 2)
            total = sub.allreduce(np.array([comm.rank], dtype=np.int64))[0]
            return (sub.rank, sub.size, int(total))

        results = Session(8).run(worker)
        for rank, (sub_rank, sub_size, total) in enumerate(results):
            assert sub_size == 4
            assert sub_rank == rank // 2
            assert total == (12 if rank % 2 == 0 else 16)

    def test_negative_color_opts_out(self):
        def worker(comm):
            sub = comm.split(-1 if comm.rank == 0 else 0)
            if sub is None:
                return "out"
            return int(sub.allreduce(np.array([1], dtype=np.int64))[0])

        assert Session(4).run(worker) == ["out", 3, 3, 3]

    def test_key_reorders_group_ranks(self):
        def worker(comm):
            return comm.split(0, key=-comm.rank).rank

        assert Session(4).run(worker) == [3, 2, 1, 0]

    def test_nested_split(self):
        """Split a sub-communicator again: quadrant sums of 16 ranks."""

        def worker(comm):
            half = comm.split(comm.rank // 8)          # two halves of 8
            quad = half.split(half.rank // 4)          # four quadrants of 4
            total = quad.allreduce(np.array([comm.rank], dtype=np.int64))[0]
            return int(total)

        results = Session(16).run(worker)
        expected = [sum(range(q * 4, q * 4 + 4)) for q in range(4)]
        for rank, total in enumerate(results):
            assert total == expected[rank // 4]

    def test_sub_and_world_collectives_interleave(self):
        """Collectives on the subgroup and the world alternate safely
        (the MPI same-order-per-process rule holds by construction)."""

        def worker(comm):
            sub = comm.split(comm.rank % 2)
            a = sub.allreduce(np.array([1], dtype=np.int64))[0]
            b = comm.allreduce(np.array([int(a)], dtype=np.int64))[0]
            sub.barrier()
            c = sub.allgather(np.array([int(b)], dtype=np.int64))
            return c.tolist()

        results = Session(6).run(worker)
        # each subgroup has 3 members -> a = 3 everywhere -> b = 18
        assert all(r == [18, 18, 18] for r in results)

    def test_rooted_collective_on_subgroup(self):
        def worker(comm):
            sub = comm.split(0 if comm.rank < 3 else 1)
            if comm.rank < 3:
                out = sub.gather(
                    np.array([comm.rank], dtype=np.int64), root=0
                )
                return None if out is None else out.tolist()
            # the other group does its own reduce
            r = sub.reduce(np.array([comm.rank], dtype=np.int64), root=0)
            return None if r is None else r.tolist()

        results = Session(6).run(worker)
        assert results[0] == [0, 1, 2]
        assert results[3] == [3 + 4 + 5]
        assert results[1] is None and results[4] is None


class TestVVariants:
    def test_gatherv_concatenates_uneven_contributions(self):
        def worker(comm):
            mine = np.arange(comm.rank + 1, dtype=np.int64) + comm.rank * 10
            out = comm.gatherv(mine, root=0)
            return None if out is None else out.tolist()

        results = Session(4).run(worker)
        assert results[0] == [0, 10, 11, 20, 21, 22, 30, 31, 32, 33]
        assert results[1] is None

    def test_gatherv_with_empty_contribution(self):
        def worker(comm):
            mine = (
                np.empty(0, dtype=np.int64)
                if comm.rank == 1
                else np.array([comm.rank], dtype=np.int64)
            )
            out = comm.gatherv(mine, root=2)
            return None if out is None else out.tolist()

        results = Session(3).run(worker)
        assert results[2] == [0, 2]

    def test_scatterv_roundtrip(self):
        def worker(comm):
            counts = np.array([r + 1 for r in range(comm.size)])
            if comm.rank == 0:
                flat = np.arange(int(counts.sum()), dtype=np.int64)
                mine = comm.scatterv(flat, counts, root=0)
            else:
                mine = comm.scatterv(None, counts, root=0)
            return mine.tolist()

        results = Session(4).run(worker)
        assert results == [[0], [1, 2], [3, 4, 5], [6, 7, 8, 9]]

    def test_scatterv_bad_counts_rejected(self):
        def worker(comm):
            return comm.scatterv(
                np.zeros(4, dtype=np.int64), np.array([2, 2, 2]), root=0
            )

        with pytest.raises(ExecutionError):
            Session(4, timeout=5.0).run(worker)

    def test_gatherv_on_subcommunicator(self):
        def worker(comm):
            sub = comm.split(comm.rank % 2)
            mine = np.full(sub.rank + 1, comm.rank, dtype=np.int64)
            out = sub.gatherv(mine, root=0)
            return None if out is None else out.tolist()

        results = Session(6).run(worker)
        assert results[0] == [0, 2, 2, 4, 4, 4]
        assert results[1] == [1, 3, 3, 5, 5, 5]
