"""MPI-style programming facade over the threaded transport.

Downstream users rarely want to hand-build schedules; they want to write
rank code against an MPI-looking API and have the library pick algorithms
— the way the paper's selection configuration makes MPICH transparently
use the generalized algorithms (§VI-G).  This module provides exactly
that:

>>> import numpy as np
>>> from repro.runtime.session import Session
>>> def worker(comm):
...     local = np.full(4, comm.rank, dtype=np.int64)
...     total = comm.allreduce(local)
...     assert total.tolist() == [6, 6, 6, 6]  # 0+1+2+3
...     return int(total[0])
>>> Session(nranks=4).run(worker)
[6, 6, 6, 6]

Each rank runs in its own thread with a :class:`Comm` handle exposing
``bcast/reduce/gather/scatter/allgather/allreduce/reduce_scatter/barrier``.
Algorithm choice per call comes from a :class:`~repro.selection.table.
SelectionTable` (defaults to the MPICH policy), so pointing a session at a
tuned table changes every collective underneath the application — the
paper's "one environment variable" user experience.

Implementation notes: schedules are deterministic functions of
``(collective, algorithm, p, k, root)``; the session builds each one once
and shares it, so no coordination is needed beyond the message channels
themselves (per-(src, dst) FIFO queues shared through the session).
Each rank binds the shared schedule (its bind memo is the schedule's, so
the ranks share one set of step tuples) and walks only its own rank's
with :func:`repro.compile.run_compiled_rank`, the same body the threaded
transport's rank threads run; collective calls across ranks match up
because MPI semantics already require all ranks to issue collectives in
the same order.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..compile import StagingPool, run_compiled_rank
from ..core.blocks import BlockMap
from ..core.registry import build_schedule, info
from ..core.schedule import Schedule
from ..errors import ExecutionError, FaultError, PartialFailure
from ..faults.channel import (
    ChannelAborted,
    ChannelBroken,
    ChannelMonitor,
    ChannelTimeout,
    LossyChannel,
)
from ..faults.plan import FaultPlan
from ..selection.defaults import mpich_policy
from ..selection.table import SelectionTable
from .ops import SUM, ReduceOp

__all__ = ["Session", "Comm"]


class _ChannelMap(dict):
    """``(src, dst)`` → :class:`LossyChannel`, created on first use."""

    def __init__(self, faults: Optional[FaultPlan]) -> None:
        super().__init__()
        self.faults = faults
        self.lock = threading.Lock()

    def __missing__(self, key: Tuple[int, int]) -> LossyChannel:
        with self.lock:
            return self.setdefault(key, LossyChannel(*key, self.faults))


class _Shared:
    """Session state shared by all rank threads."""

    def __init__(
        self,
        nranks: int,
        table: SelectionTable,
        timeout: float,
        faults: Optional[FaultPlan] = None,
        detector=None,
    ) -> None:
        self.nranks = nranks
        self.table = table
        self.timeout = timeout
        self.faults = faults if faults is not None and faults.is_active else None
        # Optional failure detector (duck-typed to
        # repro.recovery.HeartbeatDetector): ranks beat it on every
        # collective call, and structured faults are confirmed on it when
        # the session aggregates failures.
        self.detector = detector
        # One collective-call counter per rank; each rank thread only ever
        # touches its own slot (crash/straggler faults index by call).
        self.call_counts = [0] * nranks
        self.channels = _ChannelMap(self.faults)
        self._schedules: Dict[Tuple, Schedule] = {}
        self._schedule_lock = threading.Lock()
        self.abort = threading.Event()
        # Rendezvous state for Comm.split: per (comm-id, call-index), the
        # (color, key) every member registered, plus a barrier to release
        # them together once all have arrived.
        self._split_lock = threading.Lock()
        self._splits: Dict[Tuple, Dict[int, Tuple[int, int]]] = {}
        self._split_barriers: Dict[Tuple, threading.Barrier] = {}

    def split_rendezvous(
        self,
        comm_key: Tuple,
        nmembers: int,
        global_rank: int,
        color: int,
        key: int,
    ) -> Dict[int, Tuple[int, int]]:
        """Collect every member's (color, key); returns the full table."""
        with self._split_lock:
            table = self._splits.setdefault(comm_key, {})
            table[global_rank] = (color, key)
            barrier = self._split_barriers.setdefault(
                comm_key, threading.Barrier(nmembers)
            )
        barrier.wait(timeout=self.timeout)
        return table

    def live_channels(self) -> List[LossyChannel]:
        """Monitor hook: snapshot of the channels created so far."""
        with self.channels.lock:
            return list(self.channels.values())

    def schedule(
        self, key: Tuple, build: Callable[[], Schedule]
    ) -> Schedule:
        """The shared schedule for ``key``, built once per key, not per
        rank per call: memory stays flat for large sessions, and every
        rank's :meth:`~repro.core.schedule.Schedule.bind` hits one memo.
        """
        sched = self._schedules.get(key)
        if sched is None:
            with self._schedule_lock:
                sched = self._schedules.get(key)
                if sched is None:
                    sched = self._schedules[key] = build()
        return sched


class Comm:
    """Per-rank communicator handle (the ``MPI_COMM_WORLD`` analogue).

    Sub-communicators created by :meth:`split` reuse the session's global
    channels: collective schedules are built over the group and remapped
    onto the members' global ranks, so a subgroup collective is just a
    schedule whose idle ranks happen to be every rank outside the group.
    """

    def __init__(
        self,
        shared: _Shared,
        rank: int,
        *,
        members: Optional[List[int]] = None,
        comm_id: Tuple = ("world",),
    ) -> None:
        self._shared = shared
        self._members = members if members is not None else list(
            range(shared.nranks)
        )
        self._comm_id = comm_id
        self._split_calls = 0
        self.global_rank = rank
        self.rank = self._members.index(rank)
        self.size = len(self._members)

    def split(self, color: int, key: Optional[int] = None) -> Optional["Comm"]:
        """MPI_Comm_split: partition this communicator by ``color``.

        Members sharing a color form a new communicator, ordered by
        ``key`` (ties by current rank, per the MPI standard); a negative
        color opts out and returns ``None``.
        """
        self._split_calls += 1
        call_key = (self._comm_id, "split", self._split_calls)
        table = self._shared.split_rendezvous(
            call_key,
            self.size,
            self.global_rank,
            color,
            key if key is not None else self.rank,
        )
        if color < 0:
            return None
        mine = sorted(
            (
                (ck[1], self._members.index(g), g)
                for g, ck in table.items()
                if ck[0] == color
            ),
        )
        members = [g for _, _, g in mine]
        return Comm(
            self._shared,
            self.global_rank,
            members=members,
            comm_id=call_key + (color,),
        )

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------

    def bcast(self, data: Optional[np.ndarray], *, root: int = 0,
              count: Optional[int] = None,
              dtype: np.dtype = np.dtype(np.int64)) -> np.ndarray:
        """Broadcast ``data`` from ``root``.

        Non-roots pass either a template buffer (whose length and dtype
        describe the incoming message) or ``count`` plus ``dtype``.
        """
        if self.rank == root:
            if data is None:
                raise ExecutionError("bcast root must supply data")
            buf = np.array(data, copy=True)
        else:
            if data is not None:
                n, dt = len(data), np.asarray(data).dtype
            elif count is not None:
                n, dt = count, np.dtype(dtype)
            else:
                raise ExecutionError(
                    "bcast non-root needs `count` (or a template buffer)"
                )
            buf = np.zeros(n, dtype=dt)
        return self._run("bcast", buf, root=root)

    def reduce(self, data: np.ndarray, *, op: ReduceOp = SUM,
               root: int = 0) -> Optional[np.ndarray]:
        """Reduce to ``root``; returns the result there, ``None`` elsewhere."""
        out = self._run("reduce", np.array(data, copy=True), op=op, root=root)
        return out if self.rank == root else None

    def allreduce(self, data: np.ndarray, *, op: ReduceOp = SUM) -> np.ndarray:
        """Reduce across all ranks; every rank returns the full result."""
        return self._run("allreduce", np.array(data, copy=True), op=op)

    def gather(self, data: np.ndarray, *, root: int = 0) -> Optional[np.ndarray]:
        """Gather equal-size contributions; root returns the concatenation."""
        total, buf = self._blockwise_buffer(data)
        out = self._run("gather", buf, root=root, count=total)
        return out if self.rank == root else None

    def scatter(self, data: Optional[np.ndarray], *, root: int = 0) -> np.ndarray:
        """Scatter the root's buffer; every rank returns its block."""
        if self.rank == root:
            if data is None:
                raise ExecutionError("scatter root must supply data")
            total = len(data)
        else:
            total = None
        total = self._agree_on_count("scatter", total, root)
        blocks = BlockMap(total, self.size)
        if self.rank == root:
            buf = np.array(data, copy=True)
        else:
            buf = np.zeros(total, dtype=np.int64 if data is None
                           else np.asarray(data).dtype)
        out = self._run("scatter", buf, root=root, count=total)
        start, stop = blocks.range_of(self.rank)
        return out[start:stop]

    def allgather(self, data: np.ndarray) -> np.ndarray:
        """Gather equal-size contributions; every rank returns the
        concatenation in rank order."""
        total, buf = self._blockwise_buffer(data)
        return self._run("allgather", buf, count=total)

    def gatherv(self, data: np.ndarray, *, root: int = 0) -> Optional[np.ndarray]:
        """Gather *variable-size* contributions; the root returns their
        concatenation in rank order (MPI_Gatherv).

        Implemented as the regular gather tree over an
        :class:`~repro.core.blocks.ExplicitBlockMap` built from an
        exchanged count vector — the schedule is identical, only the
        block arithmetic changes.
        """
        from ..core.blocks import ExplicitBlockMap

        data = np.asarray(data)
        counts = self.allgather(np.array([len(data)], dtype=np.int64))
        bm = ExplicitBlockMap(tuple(int(c) for c in counts))
        buf = np.zeros(bm.total, dtype=data.dtype)
        start, stop = bm.range_of(self.rank)
        buf[start:stop] = data
        out = self._run("gather", buf, root=root, count=bm.total,
                        block_map=bm)
        return out if self.rank == root else None

    def scatterv(
        self,
        data: Optional[np.ndarray],
        counts: np.ndarray,
        *,
        root: int = 0,
    ) -> np.ndarray:
        """Scatter *variable-size* blocks from the root (MPI_Scatterv).

        All ranks pass the same ``counts`` vector (one entry per rank);
        each returns its own block.
        """
        from ..core.blocks import ExplicitBlockMap

        counts = np.asarray(counts)
        if len(counts) != self.size:
            raise ExecutionError(
                f"scatterv counts has {len(counts)} entries for "
                f"{self.size} ranks"
            )
        bm = ExplicitBlockMap(tuple(int(c) for c in counts))
        if self.rank == root:
            if data is None or len(data) != bm.total:
                raise ExecutionError(
                    f"scatterv root needs a buffer of {bm.total} elements"
                )
            buf = np.array(data, copy=True)
        else:
            buf = np.zeros(
                bm.total,
                dtype=np.asarray(data).dtype if data is not None else np.int64,
            )
        out = self._run("scatter", buf, root=root, count=bm.total,
                        block_map=bm)
        start, stop = bm.range_of(self.rank)
        return out[start:stop]

    def reduce_scatter(self, data: np.ndarray, *, op: ReduceOp = SUM) -> np.ndarray:
        """Reduce full vectors, scatter the result; returns this rank's block."""
        buf = np.array(data, copy=True)
        out = self._run("reduce_scatter", buf, op=op)
        blocks = BlockMap(len(out), self.size)
        start, stop = blocks.range_of(self.rank)
        return out[start:stop]

    def alltoall(self, data: np.ndarray) -> np.ndarray:
        """Personalized exchange: ``data`` holds ``size`` equal chunks,
        chunk ``j`` destined for rank ``j``; returns this rank's received
        column (chunk ``i`` from rank ``i``)."""
        data = np.asarray(data)
        if len(data) % self.size:
            raise ExecutionError(
                f"alltoall buffer of {len(data)} elements is not "
                f"divisible into {self.size} chunks"
            )
        p = self.size
        total = len(data) * p  # the p² block space
        grid = BlockMap(total, p * p)
        buf = np.zeros(total, dtype=data.dtype)
        pos = 0
        for d in range(p):
            start, stop = grid.range_of(self.rank * p + d)
            buf[start:stop] = data[pos : pos + (stop - start)]
            pos += stop - start
        out = self._run("alltoall", buf, count=total)
        return np.concatenate(
            [out[slice(*grid.range_of(s * p + self.rank))] for s in range(p)]
        )

    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        self._run("barrier", np.zeros(1, dtype=np.int64))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _blockwise_buffer(self, data: np.ndarray) -> Tuple[int, np.ndarray]:
        """Assemble the full-size working buffer for gather-family calls.

        Contributions must be equal-sized across ranks (the MPI contract
        for these collectives); the total is ``size * len(data)``.
        """
        data = np.asarray(data)
        total = len(data) * self.size
        blocks = BlockMap(total, self.size)
        buf = np.zeros(total, dtype=data.dtype)
        start, stop = blocks.range_of(self.rank)
        buf[start:stop] = data
        return total, buf

    def _agree_on_count(self, collective: str, total: Optional[int],
                        root: int) -> int:
        """Distribute the root's element count (tiny side-band bcast)."""
        shared = self._shared
        root_g = self._members[root]
        if self.rank == root:
            assert total is not None
            for dst in self._members:
                if dst != root_g:
                    shared.channels[(root_g, dst)].send(
                        np.array([total], dtype=np.int64)
                    )
            return total
        try:
            msg = shared.channels[(root_g, self.global_rank)].recv(
                shared.timeout, abort=shared.abort
            )
        except ChannelTimeout:
            raise ExecutionError(
                f"{collective}: timed out waiting for the root's count"
            ) from None
        except ChannelAborted:
            raise ExecutionError(
                "session aborted by another rank"
            ) from None
        except ChannelBroken as broken:
            raise FaultError(
                f"{collective}: {broken.failure.describe()}",
                kind="retries_exhausted",
                rank=self.global_rank,
                peer=root_g,
                seq=broken.failure.seq,
                retries=broken.failure.attempts,
            ) from None
        return int(msg[0])

    def _run(self, collective: str, buf: np.ndarray, *, op: ReduceOp = SUM,
             root: int = 0, count: Optional[int] = None,
             block_map=None) -> np.ndarray:
        shared = self._shared
        p = self.size
        n = count if count is not None else len(buf)
        faults = shared.faults
        # At session level, Crash.step / straggler slowdown index the
        # rank's Nth collective call (schedules vary per call, so a
        # schedule-step index would be meaningless here).
        call_idx = shared.call_counts[self.global_rank]
        shared.call_counts[self.global_rank] = call_idx + 1
        if shared.detector is not None:
            shared.detector.heartbeat(
                self.global_rank, time.monotonic(), step=call_idx
            )
        if faults is not None:
            if faults.crash_step(self.global_rank) == call_idx:
                raise FaultError(
                    f"rank {self.global_rank} crashed before collective "
                    f"call {call_idx} ({collective}) (injected)",
                    kind="crash",
                    rank=self.global_rank,
                    step=call_idx,
                )
            slowdown = faults.straggler_factor(self.global_rank)
            if slowdown > 1.0:
                time.sleep(faults.straggler_step_delay * (slowdown - 1.0))
        if p == 1:
            return buf
        choice = shared.table.select(collective, p, n * buf.itemsize)
        entry = info(collective, choice.algorithm)
        key = (collective, choice.algorithm, p, choice.k,
               root if entry.takes_root else 0, tuple(self._members))
        members = self._members

        def build() -> Schedule:
            sched = build_schedule(
                collective, choice.algorithm, p, k=choice.k,
                root=root if entry.takes_root else 0,
            )
            if members != list(range(shared.nranks)):
                from ..core.hierarchical import remap_ranks

                sched = remap_ranks(sched, members, shared.nranks)
            return sched

        sched = shared.schedule(key, build)
        bound = sched.bind(
            block_map if block_map is not None
            else sched.block_map(len(buf))
        )
        # Session channels may be lossy, so payloads are never recycled.
        done = run_compiled_rank(
            self.global_rank, bound.raw_steps[self.global_rank], buf, op,
            shared.channels, StagingPool((), buf.dtype),
            shared.timeout, shared.abort,
        )
        if done is None:
            raise ExecutionError("session aborted by another rank")
        return buf


class Session:
    """Spawns one thread per rank and runs a user function on each.

    Parameters
    ----------
    nranks:
        Number of MPI-style processes (threads).
    table:
        Algorithm selection table; defaults to the MPICH policy.  Pass a
        tuned table (see :func:`repro.selection.tuner.tune`) to switch
        every collective underneath the application.
    timeout:
        Per-receive timeout (seconds) before the session aborts with a
        deadlock diagnosis.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` — the same object
        the simulator and threaded transport accept.  Link-level faults
        (drops, duplicates) are recovered by the ack/retry protocol; for
        :class:`~repro.faults.plan.Crash` and
        :class:`~repro.faults.plan.Straggler` the ``step`` index denotes
        the rank's Nth *collective call* (sessions run many schedules, so
        schedule-step indices would be meaningless).  Unmaskable faults
        raise a structured :class:`~repro.errors.PartialFailure`.
    """

    def __init__(
        self,
        nranks: int,
        *,
        table: Optional[SelectionTable] = None,
        timeout: float = 30.0,
        faults: Optional[FaultPlan] = None,
        detector=None,
    ) -> None:
        if nranks < 1:
            raise ExecutionError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self.table = table or mpich_policy()
        self.timeout = timeout
        self.faults = faults
        self.detector = detector

    def run(self, fn: Callable[[Comm], object]) -> List[object]:
        """Run ``fn(comm)`` on every rank; returns per-rank results.

        The first rank exception aborts the whole session and re-raises;
        injected faults surface as a :class:`~repro.errors.PartialFailure`
        aggregating every rank's structured diagnosis.
        """
        shared = _Shared(
            self.nranks, self.table, self.timeout, self.faults,
            detector=self.detector,
        )
        results: List[object] = [None] * self.nranks
        failures: List[Tuple[int, BaseException]] = []
        lock = threading.Lock()

        monitor: Optional[ChannelMonitor] = None
        if shared.faults is not None and shared.faults.has_loss:
            monitor = ChannelMonitor(
                shared.live_channels,
                on_failure=lambda failure: shared.abort.set(),
                tick=max(shared.faults.retry.rto / 4.0, 0.001),
            )
            monitor.start()

        def worker(rank: int) -> None:
            try:
                results[rank] = fn(Comm(shared, rank))
            except BaseException as exc:
                with lock:
                    failures.append((rank, exc))
                shared.abort.set()

        threads = [
            threading.Thread(target=worker, args=(r,), daemon=True,
                             name=f"repro-session-{r}")
            for r in range(self.nranks)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=self.timeout + 5.0)
                if t.is_alive():
                    shared.abort.set()
                    raise ExecutionError(f"session thread {t.name} hung")
        finally:
            if monitor is not None:
                monitor.stop()
        if failures:
            primary = [
                (rank, exc)
                for rank, exc in failures
                if isinstance(exc, FaultError)
            ]
            if primary:
                if self.detector is not None:
                    now = time.monotonic()
                    for _, exc in primary:
                        blamed = (
                            exc.peer
                            if exc.kind == "retries_exhausted"
                            and exc.peer is not None
                            else exc.rank
                        )
                        if blamed is not None:
                            self.detector.confirm(
                                blamed, kind=exc.kind, step=exc.step,
                                peer=exc.peer, now=now,
                            )
                raise PartialFailure(
                    f"session: rank(s) {sorted(r for r, _ in primary)} "
                    f"failed under injected faults",
                    failed_ranks=sorted(r for r, _ in primary),
                    stalled_ranks=sorted(
                        r for r, exc in failures
                        if not isinstance(exc, FaultError)
                    ),
                    faults=[exc for _, exc in primary],
                )
            rank, exc = failures[0]
            raise ExecutionError(f"rank {rank} failed: {exc}") from exc
        return results
