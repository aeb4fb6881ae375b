"""The two data walkers over a bound schedule.

Both walk the same action tuples, :meth:`Schedule.bind
<repro.core.schedule.Schedule.bind>`'s ``raw_steps`` (preresolved slices,
merged ranges; one entry per step of the schedule's own rank program),
instead of interpreting the IR, and both are pinned
bit-identical to the op-by-op reference interpreter the differential
suite keeps as its oracle (``tests/oracle.py``):

* :func:`run_compiled_lockstep` — every rank under one cooperative
  progress loop with in-process FIFO deques.  Deadlock raises
  :class:`~repro.errors.ExecutionError` naming the blocked ranks, and
  leftover messages raise.
* :func:`run_compiled_rank` — *one* rank, blocking on channel receives:
  the body every thread of the threaded transport and every
  :class:`~repro.runtime.session.Comm` collective call runs.

Either way a FIFO-matched message whose blocks disagree with the receive
op raises the interpreter's diagnosis (precomputed by the bind, reported
when the message would be consumed), and a payload of the wrong size
raises before it is applied.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError, FaultError
from ..faults.channel import ChannelAborted, ChannelBroken, ChannelTimeout
from ..core.schedule import BoundSchedule
from .program import StagingPool

__all__ = ["run_compiled_lockstep", "run_compiled_rank"]


def _gather(buf: np.ndarray, ranges: tuple, total: int) -> np.ndarray:
    """Snapshot the named ranges into a fresh payload array."""
    if len(ranges) == 1:
        a, b = ranges[0]
        return buf[a:b].copy()
    out = np.empty(total, dtype=buf.dtype)
    pos = 0
    for a, b in ranges:
        n = b - a
        out[pos:pos + n] = buf[a:b]
        pos += n
    return out


def _apply_recv(
    buf: np.ndarray,
    payload: np.ndarray,
    ranges: tuple,
    total: int,
    reduce: bool,
    op,
    rank: int,
    blocks: tuple,
) -> None:
    """Scatter (or reduce) a payload into the named ranges."""
    if payload.size != total:
        raise ExecutionError(
            f"rank {rank}: payload of {payload.size} elements does not "
            f"match blocks {blocks} totalling {total}"
        )
    pos = 0
    for a, b in ranges:
        n = b - a
        chunk = payload[pos:pos + n]
        if reduce:
            op.apply(buf[a:b], chunk)
        else:
            buf[a:b] = chunk
        pos += n


def run_compiled_lockstep(
    bound: BoundSchedule,
    buffers: List[np.ndarray],
    op,
) -> int:
    """Run a bound schedule over ``buffers`` in place (lockstep).

    Returns the number of elements moved through messages (the
    interpreter's ``bytes_moved`` accounting), for the executor's
    observability counters.  Raises :class:`~repro.errors.ExecutionError`
    on deadlock, FIFO block mismatch, payload size mismatch, or leftover
    messages — the failure surface :func:`repro.core.validate.verify`
    reports statically, in the same visit order.
    """
    p = bound.nranks
    steps = bound.raw_steps
    needs = bound.needs
    desc = bound.describe_str
    channels: Dict[Tuple[int, int], Deque[np.ndarray]] = {}
    pc = [0] * p
    posted = [False] * p
    moved = 0
    unfinished = sum(1 for r in range(p) if steps[r])
    while unfinished:
        changed = False
        for rank in range(p):
            rank_steps = steps[rank]
            i = pc[rank]
            if i >= len(rank_steps):
                continue
            sends, copies, recvs = rank_steps[i]
            buf = buffers[rank]
            if not posted[rank]:
                for peer, ranges, total in sends:
                    ch = channels.get((rank, peer))
                    if ch is None:
                        ch = channels[(rank, peer)] = deque()
                    ch.append(_gather(buf, ranges, total))
                    moved += total
                for s0, s1, d0, d1 in copies:
                    buf[d0:d1] = buf[s0:s1]
                posted[rank] = True
                changed = True
            ready = all(
                len(channels.get((peer, rank), ())) >= cnt
                for peer, cnt in needs[rank][i]
            )
            if not ready:
                continue
            for peer, reduce, ranges, total, blocks, mismatch in recvs:
                payload = channels[(peer, rank)].popleft()
                if mismatch is not None:
                    raise ExecutionError(
                        f"{desc}: rank {rank} step {i} expected blocks "
                        f"{mismatch[1]} from rank {peer} but the "
                        f"in-flight message carries {mismatch[0]}"
                    )
                _apply_recv(
                    buf, payload, ranges, total, reduce, op, rank, blocks
                )
            pc[rank] += 1
            posted[rank] = False
            changed = True
            if pc[rank] >= len(rank_steps):
                unfinished -= 1
        if not changed and unfinished:
            lines = []
            for rank in range(p):
                if pc[rank] >= len(steps[rank]):
                    continue
                waits = [
                    f"recv{list(blocks)}<-{peer}"
                    f"(have {len(channels.get((peer, rank), ()))})"
                    for peer, _, _, _, blocks, _ in steps[rank][pc[rank]][2]
                ]
                lines.append(
                    f"  rank {rank} at step {pc[rank]}: waiting on {waits}"
                )
                if len(lines) >= 16:
                    lines.append("  ... (truncated)")
                    break
            raise ExecutionError(
                f"{desc}: deadlock — no rank can make progress (compiled)."
                + "\n" + "\n".join(lines)
            )
    leftovers = {k: len(v) for k, v in channels.items() if v}
    if leftovers:
        raise ExecutionError(
            f"{desc}: {sum(leftovers.values())} message(s) were sent but "
            f"never received: {leftovers}"
        )
    return moved


def run_compiled_rank(
    rank: int,
    steps: Sequence[Tuple[tuple, tuple, tuple]],
    buf: np.ndarray,
    op,
    channels: Mapping[Tuple[int, int], Any],
    pool: StagingPool,
    timeout: float,
    abort: threading.Event,
    *,
    crash_at: Optional[int] = None,
    straggle: Optional[float] = None,
    heartbeat=None,
) -> Optional[int]:
    """Walk one rank's bound ``steps`` over ``buf``, blocking on receives.

    Everything that differs between callers arrives as data:

    * ``steps`` — this rank's ``(sends, copies, recvs)`` tuples,
      ``bound.raw_steps[rank]``: the schedule's own step numbering,
      which ``crash_at`` and ``heartbeat`` are expressed in.
    * ``channels`` — ``(src, dst)`` → an object with ``send(payload)``
      and ``recv(timeout, abort)`` raising
      :class:`~repro.faults.channel.ChannelTimeout` /
      :class:`~repro.faults.channel.ChannelAborted` /
      :class:`~repro.faults.channel.ChannelBroken`.  A missing channel
      is diagnosed as a receive with no matching send.
    * ``pool`` — the payload source.  A pool registered for the bound
      send sizes recycles consumed payloads; one with no sizes hands out
      fresh arrays and ignores releases, which is mandatory on lossy
      channels (a duplicate delivery aliases the payload object).
    * ``crash_at`` (raise an injected-crash
      :class:`~repro.errors.FaultError` before that step), ``straggle``
      (seconds slept before every step) and ``heartbeat`` (called as
      ``heartbeat(rank, now, step=i)`` after every step) are ``None``
      when no fault plan / detector is present.

    ``abort`` is polled before every step and inside every blocked
    receive.  Returns the number of elements sent, or ``None`` when the
    run was aborted elsewhere (the primary failure is another rank's).
    Receive timeouts raise :class:`~repro.errors.ExecutionError` naming
    rank, step, peer and blocks; an exhausted retry budget raises
    ``FaultError(kind="retries_exhausted")``.
    """
    moved = 0
    for i, (sends, copies, recvs) in enumerate(steps):
        if abort.is_set():
            return None
        if crash_at is not None and i == crash_at:
            raise FaultError(
                f"rank {rank} crashed before step {i} (injected)",
                kind="crash",
                rank=rank,
                step=i,
            )
        if straggle is not None:
            time.sleep(straggle)
        for peer, ranges, total in sends:
            payload = pool.acquire(total)
            pos = 0
            for a, b in ranges:
                n = b - a
                payload[pos:pos + n] = buf[a:b]
                pos += n
            channels[(rank, peer)].send(payload)
            moved += total
        for s0, s1, d0, d1 in copies:
            buf[d0:d1] = buf[s0:s1]
        for peer, reduce, ranges, total, blocks, mismatch in recvs:
            try:
                channel = channels[(peer, rank)]
            except KeyError:
                raise ExecutionError(
                    f"rank {rank} step {i}: no channel {peer}->{rank} "
                    f"exists (receive with no matching send)"
                ) from None
            try:
                payload = channel.recv(timeout, abort)
            except ChannelAborted:
                return None
            except ChannelTimeout:
                raise ExecutionError(
                    f"rank {rank} step {i}: timed out waiting for blocks "
                    f"{list(blocks)} from rank {peer}"
                ) from None
            except ChannelBroken as broken:
                raise FaultError(
                    f"rank {rank} step {i}: {broken.failure.describe()}",
                    kind="retries_exhausted",
                    rank=rank,
                    step=i,
                    peer=peer,
                    seq=broken.failure.seq,
                    retries=broken.failure.attempts,
                ) from None
            if mismatch is not None:
                raise ExecutionError(
                    f"rank {rank} step {i} expected blocks {mismatch[1]} "
                    f"from rank {peer} but the in-flight message carries "
                    f"{mismatch[0]}"
                )
            _apply_recv(buf, payload, ranges, total, reduce, op, rank, blocks)
            pool.release(payload)
        if heartbeat is not None:
            heartbeat(rank, time.monotonic(), step=i)
    return moved
