"""Thread-based message-passing transport.

Where :mod:`repro.runtime.executor` runs schedules under a cooperative
progress loop, this module runs them the way an MPI job actually would: one
worker per rank, each independently walking its own program and blocking on
channel receives.  Channels are per-(src, dst) FIFO
:class:`~repro.faults.channel.LossyChannel` objects, so the MPI
non-overtaking rule holds by construction while *everything else* — step
interleaving across ranks, send/receive timing — is at the mercy of the OS
scheduler.  Bugs that a lockstep executor can mask (missing waits, matching
that only works under one interleaving) surface here as mismatched data or
a deadlock timeout.

Resilience: pass a :class:`~repro.faults.plan.FaultPlan` and the transport
becomes a lossy network.  Sends carry sequence numbers and may be dropped
or duplicated per the plan; a monitor daemon retransmits unacked packets
with exponential backoff, so schedules complete *correctly* under injected
loss — or, once a message exhausts its retry budget or a rank crashes,
fail fast with a structured per-rank diagnosis
(:class:`~repro.errors.FaultError` inside a
:class:`~repro.errors.PartialFailure`): which op, which peer, how many
retries.  Never a silent hang — blocked receives poll in short slices, so
an abort anywhere in the job unblocks every rank within ~100 ms.

Python's GIL serializes the NumPy work, but that is irrelevant for what
this transport is for: exercising the *ordering* semantics of schedules
under real asynchrony.  (Timing fidelity is the simulator's job.)

Every rank thread runs the same body — :func:`repro.compile.
run_compiled_rank` over the schedule's preresolved
:attr:`BoundSchedule.raw_steps <repro.core.schedule.BoundSchedule>`
action tuples (:meth:`Schedule.bind <repro.core.schedule.Schedule.bind>`,
the schedule's own steps) — and the transport only chooses what carries
the payloads.  Fault-free and detector-free: lean
counter-only channels and recycled staging buffers.  Under a fault plan
or a detector: the full lossy channel machinery and fresh payload
arrays.  Rank bodies are dispatched to a persistent
worker-thread pool when possible (thread spawn costs ~20× a pool
dispatch here).  Results are bit-identical to the reference interpreter
either way (pinned by the differential suite).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..compile import StagingPool, run_compiled_rank
from ..core.schedule import Schedule
from ..errors import ExecutionError, FaultError, PartialFailure
from ..faults.channel import (
    POLL_SLICE,
    ChannelAborted,
    ChannelMonitor,
    ChannelTimeout,
    LossyChannel,
)
from ..faults.plan import FaultPlan
from ..obs import OBS
from .buffers import buffer_count
from .ops import SUM, ReduceOp

__all__ = ["ThreadedTransport", "execute_threaded"]


@dataclass
class _RankFailure:
    rank: int
    error: BaseException


class _FastChannel:
    """Minimal FIFO channel for the fault-free path.

    A :class:`queue.SimpleQueue` plus sent/received counters (each has a
    single writer: the one producer rank, the one consumer rank).  The
    blocking receive wakes the instant a payload arrives; the poll slices
    only bound how fast an abort elsewhere in the job unblocks this rank
    — the same ``send`` / ``recv`` / ``undelivered`` / ``failure``
    contract as the lossy channel, minus the loss.
    """

    __slots__ = ("_q", "sent", "received")

    #: A reliable channel never exhausts a retry budget.
    failure = None

    def __init__(self) -> None:
        self._q: "queue.SimpleQueue" = queue.SimpleQueue()
        self.sent = 0
        self.received = 0

    def send(self, payload: np.ndarray) -> None:
        """Enqueue one payload (counted)."""
        self.sent += 1
        self._q.put(payload)

    def recv(self, timeout: float, abort: threading.Event):
        """Next payload in FIFO order.

        Raises :class:`~repro.faults.channel.ChannelAborted` when the run
        aborted while waiting and
        :class:`~repro.faults.channel.ChannelTimeout` after ``timeout``
        seconds with no message (a deadlocked schedule).
        """
        try:
            payload = self._q.get_nowait()
        except queue.Empty:
            deadline = time.monotonic() + timeout
            while True:
                try:
                    payload = self._q.get(timeout=POLL_SLICE)
                    break
                except queue.Empty:
                    if abort.is_set():
                        raise ChannelAborted() from None
                    if time.monotonic() >= deadline:
                        raise ChannelTimeout() from None
        self.received += 1
        return payload

    def undelivered(self) -> int:
        """Messages sent but not (yet) received."""
        return self.sent - self.received


class _WorkerPool:
    """Persistent daemon rank-workers, reused across runs.

    Spawning a thread costs ~0.4–0.7 ms on this interpreter; dispatching
    to a parked pool worker ~0.03 ms.  Small-message collectives finish
    in well under a millisecond of actual work, so the pool is the single
    biggest lever on small-message threaded latency.  Tasks are
    self-catching closures (the transport records failures itself); the
    pool only signals completion.  A pool that misses its deadline is
    marked dead and abandoned — its parked threads are daemons — and the
    next run builds a fresh one, so a wedged task can never poison later
    runs.  Fork safety: the singleton is keyed by pid.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.dead = False
        self.lock = threading.Lock()
        self._inboxes: List["queue.SimpleQueue"] = []
        self._threads: List[threading.Thread] = []
        self._done: "queue.SimpleQueue" = queue.SimpleQueue()

    def ensure(self, n: int) -> None:
        """Grow the pool to at least ``n`` parked workers."""
        while len(self._threads) < n:
            inbox: "queue.SimpleQueue" = queue.SimpleQueue()
            t = threading.Thread(
                target=self._loop,
                args=(inbox,),
                name=f"repro-pool-{len(self._threads)}",
                daemon=True,
            )
            self._inboxes.append(inbox)
            self._threads.append(t)
            t.start()

    def _loop(self, inbox: "queue.SimpleQueue") -> None:
        while True:
            fn = inbox.get()
            try:
                fn()
            finally:
                self._done.put(None)

    def run(self, fns, timeout: float) -> bool:
        """Run ``fns`` (one per worker) to completion; ``False`` on stall.

        Caller must hold :attr:`lock` (taken by the transport so nested
        or concurrent dispatches are impossible by construction).
        """
        for i, fn in enumerate(fns):
            self._inboxes[i].put(fn)
        deadline = time.monotonic() + timeout
        done = 0
        while done < len(fns):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.dead = True
                return False
            try:
                self._done.get(timeout=remaining)
            except queue.Empty:
                self.dead = True
                return False
            done += 1
        return True


_POOL: Optional[_WorkerPool] = None
_POOL_GUARD = threading.Lock()


def _worker_pool(n: int) -> _WorkerPool:
    """The process-global pool, grown to ``n`` workers (pid-checked)."""
    global _POOL
    with _POOL_GUARD:
        if _POOL is None or _POOL.dead or _POOL.pid != os.getpid():
            _POOL = _WorkerPool()
        _POOL.ensure(n)
        return _POOL


class ThreadedTransport:
    """Executes a schedule with one thread per rank.

    Each :meth:`run` binds the schedule it holds
    (:meth:`~repro.core.schedule.Schedule.bind`) and, fault-free, pools
    staging buffers over the bound send sizes.

    Parameters
    ----------
    schedule:
        The collective schedule to run.
    timeout:
        Per-receive timeout in seconds.  A blocked receive exceeding it
        aborts the run with a deadlock diagnosis (a correct schedule on an
        unloaded machine completes receives in microseconds; the default
        leaves three orders of magnitude of headroom).  Receives poll in
        short slices underneath, so a failure elsewhere in the job
        propagates within ~100 ms rather than the full timeout.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`.  Message drops are
        recovered transparently by ack/retry with exponential backoff (the
        plan's :class:`~repro.faults.plan.RetryPolicy`); exhausted retries
        and rank crashes raise a structured
        :class:`~repro.errors.PartialFailure`.
    detector:
        Optional failure detector (duck-typed to
        :class:`repro.recovery.HeartbeatDetector`): every rank heartbeats
        it as it completes a step, and structured faults are confirmed on
        it before the transport raises — so a recovery loop wrapping this
        transport sees suspicion state, not just the final exception.
    """

    def __init__(
        self,
        schedule: Schedule,
        *,
        timeout: float = 30.0,
        faults: Optional[FaultPlan] = None,
        detector=None,
    ) -> None:
        self.schedule = schedule
        self.timeout = timeout
        self.faults = faults if faults is not None and faults.is_active else None
        self.detector = detector
        # Created up front in run(), so rank workers only ever read it.
        self._channels: Dict[Tuple[int, int], object] = {}
        self._failures: List[_RankFailure] = []
        self._aborted_ranks: List[int] = []
        self._failure_lock = threading.Lock()
        self._abort = threading.Event()
        self._moved: List[int] = [0] * schedule.nranks

    def run(
        self, buffers: List[np.ndarray], *, op: ReduceOp = SUM
    ) -> List[np.ndarray]:
        """Run the schedule over ``buffers`` (mutated in place)."""
        sched = self.schedule
        count = buffer_count(sched, buffers)
        bound = sched.bind(sched.block_map(count))
        faults = self.faults
        dtype = buffers[0].dtype
        steps = bound.raw_steps
        reliable = faults is None and self.detector is None
        if reliable:
            # Every payload has exactly one consumer, so channels need no
            # loss/ack/retry machinery and staging buffers are recycled.
            pool = StagingPool(bound.sizes, dtype)
        else:
            # A lossy channel's duplicate aliases the payload object, so
            # payloads stay immortal: a pool with no sizes recycles
            # nothing.
            pool = StagingPool((), dtype)
        for rank, rank_steps in enumerate(steps):
            for sends, _, _ in rank_steps:
                for peer, _, _ in sends:
                    if (rank, peer) not in self._channels:
                        self._channels[(rank, peer)] = (
                            _FastChannel() if reliable
                            else LossyChannel(rank, peer, faults)
                        )

        monitor: Optional[ChannelMonitor] = None
        if faults is not None and faults.has_loss:
            monitor = ChannelMonitor(
                list(self._channels.values()),
                on_failure=lambda failure: self._abort.set(),
            )
            monitor.start()

        workers = [
            (lambda rank=rank: self._worker(
                rank, steps[rank], buffers[rank], op, pool
            ))
            for rank in range(sched.nranks)
        ]
        span = (
            OBS.span(
                "execute", schedule=sched.describe(), backend="threaded",
            )
            if OBS.enabled
            else None
        )
        if span is not None:
            span.__enter__()
        try:
            if not self._dispatch(workers):
                self._abort.set()
                raise ExecutionError(
                    f"{sched.describe()}: rank worker(s) failed to finish"
                )
        finally:
            if monitor is not None:
                monitor.stop()
            if span is not None:
                span.__exit__(None, None, None)
        if OBS.enabled:
            m = OBS.metrics
            m.counter("repro_executor_runs_total", backend="threaded").inc()
            m.counter(
                "repro_executor_elements_moved_total", backend="threaded"
            ).inc(sum(self._moved))
        self._raise_failures()
        return buffers

    def _dispatch(self, workers) -> bool:
        """Run rank workers via the persistent pool (or fresh threads).

        The pool is only used from the main thread with the pool lock
        free — a transport running *inside* a pool worker (or two
        transports racing) falls back to spawning threads, so pool
        dispatch can never deadlock on itself.
        """
        budget = self.timeout + 5.0
        if threading.current_thread() is threading.main_thread():
            pool = _worker_pool(len(workers))
            if pool.lock.acquire(blocking=False):
                try:
                    return pool.run(workers, budget)
                finally:
                    pool.lock.release()
        threads = [
            threading.Thread(target=fn, name=f"repro-rank-{rank}",
                             daemon=True)
            for rank, fn in enumerate(workers)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + budget
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
            if t.is_alive():
                return False
        return True

    def _raise_failures(self) -> None:
        """Convert collected per-rank failures into one structured error."""
        sched = self.schedule
        faults = [
            f for f in self._failures if isinstance(f.error, FaultError)
        ]
        # Retry exhaustion detected by the monitor while no rank was
        # blocked on that exact channel: synthesize the diagnosis from the
        # channel's own record so it is never lost.
        reported = {
            (f.error.peer, f.error.rank, f.error.seq) for f in faults
        }
        for ch in self._channels.values():
            failure = ch.failure
            if failure is None:
                continue
            if (failure.src, failure.dst, failure.seq) in reported:
                continue
            faults.append(
                _RankFailure(
                    rank=failure.dst,
                    error=FaultError(
                        failure.describe(),
                        kind="retries_exhausted",
                        rank=failure.dst,
                        peer=failure.src,
                        seq=failure.seq,
                        retries=failure.attempts,
                    ),
                )
            )
        if faults:
            failed = sorted({f.rank for f in faults})
            if self.detector is not None:
                # Confirm the blamed rank on the detector: a crash blames
                # itself, an exhausted retry budget blames the silent
                # peer (ULFM semantics — see repro.recovery.detect).
                now = time.monotonic()
                for f in faults:
                    err = f.error
                    blamed = (
                        err.peer
                        if err.kind == "retries_exhausted"
                        and err.peer is not None
                        else err.rank
                    )
                    if blamed is not None:
                        self.detector.confirm(
                            blamed,
                            kind=err.kind,
                            step=err.step,
                            peer=err.peer,
                            now=now,
                        )
            with self._failure_lock:
                stalled = sorted(
                    set(self._aborted_ranks) - set(failed)
                )
            raise PartialFailure(
                f"{sched.describe()}: rank(s) {failed} failed under "
                f"injected faults ({len(stalled)} peer(s) aborted)",
                failed_ranks=failed,
                stalled_ranks=stalled,
                faults=[f.error for f in faults],  # type: ignore[misc]
            )
        if self._failures:
            first = self._failures[0]
            raise ExecutionError(
                f"{sched.describe()}: rank {first.rank} failed: {first.error}"
            ) from first.error

    def _worker(
        self, rank: int, steps, buf: np.ndarray, op: ReduceOp,
        pool: StagingPool,
    ) -> None:
        """One rank: walk its steps, record how it ended."""
        faults = self.faults
        crash_at = straggle = None
        if faults is not None:
            crash_at = faults.crash_step(rank)
            delay = faults.straggler_step_delay * (
                faults.straggler_factor(rank) - 1.0
            )
            if delay > 0.0:
                straggle = delay
        try:
            moved = run_compiled_rank(
                rank, steps, buf, op, self._channels, pool,
                self.timeout, self._abort,
                crash_at=crash_at,
                straggle=straggle,
                heartbeat=(
                    self.detector.heartbeat
                    if self.detector is not None else None
                ),
            )
        except BaseException as exc:  # propagate to run()
            with self._failure_lock:
                self._failures.append(_RankFailure(rank=rank, error=exc))
            self._abort.set()
            return
        if moved is None:  # aborted: the primary failure is elsewhere
            with self._failure_lock:
                self._aborted_ranks.append(rank)
        else:
            self._moved[rank] = moved

    def leftover_messages(self) -> int:
        """Messages sent but never received (0 for a matched schedule)."""
        return sum(ch.undelivered() for ch in self._channels.values())


def execute_threaded(
    schedule: Schedule,
    buffers: List[np.ndarray],
    *,
    op: ReduceOp = SUM,
    timeout: float = 30.0,
    faults: Optional[FaultPlan] = None,
    detector=None,
) -> List[np.ndarray]:
    """Convenience wrapper: run ``schedule`` on a fresh threaded transport
    and verify no messages were left unconsumed."""
    transport = ThreadedTransport(
        schedule, timeout=timeout, faults=faults, detector=detector,
    )
    transport.run(buffers, op=op)
    leftovers = transport.leftover_messages()
    if leftovers:
        raise ExecutionError(
            f"{schedule.describe()}: {leftovers} message(s) sent but never "
            f"received"
        )
    return buffers

