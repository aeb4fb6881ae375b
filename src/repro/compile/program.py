"""Flat program tables: the compiled form of a schedule.

A :class:`CompiledSchedule` *is* its schedule's sealed, read-only
:class:`~repro.core.schedule.Columns` under the schedule's labels — one
table layout, nothing copied — so the hot loops walk preresolved
integers instead of re-interpreting the IR op by op.  Each rank's
:class:`CompiledProgram` is a read-only view of it, one row per op in
program order:

==============  =====  =====================================================
table           dtype  contents (one entry per op, flat program order)
==============  =====  =====================================================
``kinds``       int8   op code: 0 send · 1 recv · 2 reduce-recv · 3 copy
``peers``       int32  peer rank (−1 for copies)
``tags``        int32  per-(src, dst) FIFO sequence number (−1 for copies)
``seg_bounds``  int64  ``[nops+1]`` — op *i* owns segment span
                       ``seg_blocks[seg_bounds[i]:seg_bounds[i+1]]``
``seg_blocks``  int32  block ids; a copy stores exactly ``[src, dst]``
``steps_raw``   int32  ``[nsteps+1]`` — the schedule's step boundaries
==============  =====  =====================================================

Only the columns are stored; ``tags``, the staging plan and the FIFO
block mismatches derive from :meth:`CompiledSchedule.messages`.
*Binding* resolves the tables against a concrete
:class:`~repro.core.blocks.BlockMap` into per-step action tuples of plain
Python ints (slice starts/stops, payload sizes) — adjacent blocks merge
into single slices — which is what the executors' tight loops consume.
The simulator reads none of this: its kernel table is the schedule's
own :meth:`~repro.core.schedule.Schedule.sim_plan`.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.schedule import (
    OP_COPY,
    OP_RECV,
    OP_REDUCE_RECV,
    OP_SEND,
    Columns,
    Messages,
    match_fifo,
)
from ..errors import ExecutionError

__all__ = [
    "OP_SEND",
    "OP_RECV",
    "OP_REDUCE_RECV",
    "OP_COPY",
    "OP_NAMES",
    "CompiledProgram",
    "CompiledSchedule",
    "BoundSchedule",
    "StagingPlan",
    "StagingPool",
]


#: Human names for op codes, used in verification diagnostics.
OP_NAMES = {OP_SEND: "send", OP_RECV: "recv",
            OP_REDUCE_RECV: "reduce-recv", OP_COPY: "copy"}

#: Cap on per-schedule bind-cache entries (distinct block geometries).
_BIND_CACHE_MAX = 8


@dataclass(frozen=True)
class CompiledProgram:
    """One rank's read-only view of the flat tables (see the module
    docstring for layout): slices of the artifact's columns, with
    ``seg_bounds`` rebased to 0."""

    rank: int
    kinds: np.ndarray
    peers: np.ndarray
    tags: np.ndarray
    seg_bounds: np.ndarray
    seg_blocks: np.ndarray
    steps_raw: np.ndarray

    @property
    def nops(self) -> int:
        """Number of ops in this rank's program."""
        return len(self.kinds)

    @property
    def nsteps(self) -> int:
        """Number of steps in this rank's program."""
        return len(self.steps_raw) - 1

    def table_bytes(self) -> bytes:
        """Canonical little-endian byte serialization of every table.

        What the golden compiled-program test hashes; platform
        independent so that golden stays portable.
        """
        parts = [np.ascontiguousarray(self.kinds, dtype="<i1").tobytes()]
        for arr in (self.peers, self.tags, self.seg_bounds,
                    self.seg_blocks, self.steps_raw):
            parts.append(np.ascontiguousarray(arr, dtype="<i4").tobytes())
        return b"|".join(parts)


@dataclass(frozen=True)
class StagingPlan:
    """The pooled, reusable staging-buffer plan for one compiled schedule.

    ``signatures`` is the sorted set of distinct send-payload block
    tuples across every rank.  Under any block map, two sends with the
    same signature need byte-identical staging buffers, so the runtime
    :class:`StagingPool` pre-registers exactly one free-list per distinct
    bound payload size and recycles buffers across sends instead of
    allocating per message.
    """

    signatures: Tuple[Tuple[int, ...], ...]


class StagingPool:
    """Free-lists of reusable NumPy staging buffers, keyed by size.

    Thread-safe (each free-list is a :class:`queue.SimpleQueue`; the
    size→queue dict is frozen at construction so worker threads only
    read it).  Recycling is only legal on the fault-free path: a
    :class:`~repro.faults.channel.LossyChannel` duplicate enqueues the
    *same* payload object twice, so under a fault plan payloads must
    stay immortal and the executors bypass the pool.
    """

    def __init__(self, sizes: Sequence[int], dtype: np.dtype) -> None:
        self._pools: Dict[int, "queue.SimpleQueue"] = {
            int(s): queue.SimpleQueue() for s in set(sizes)
        }
        self.dtype = dtype
        self.allocations = 0

    def acquire(self, size: int) -> np.ndarray:
        """A buffer of exactly ``size`` elements (recycled when possible)."""
        q = self._pools.get(size)
        if q is not None:
            try:
                return q.get_nowait()
            except queue.Empty:
                pass
        self.allocations += 1
        return np.empty(size, dtype=self.dtype)

    def release(self, buf: np.ndarray) -> None:
        """Return a fully-consumed buffer to its free-list."""
        q = self._pools.get(buf.size)
        if q is not None:
            q.put(buf)


@dataclass
class BoundSchedule:
    """Tables resolved against one block geometry: executable step tuples.

    Per rank and per step the executors consume three flat tuples of
    plain-Python ints (no NumPy scalars, no IR objects):

    * sends — ``(peer, ranges, total)``
    * copies — ``(src_start, src_stop, dst_start, dst_stop)``
    * recvs — ``(peer, reduce, ranges, total, blocks, mismatch)``

    where ``ranges`` is a tuple of ``(start, stop)`` buffer slices with
    adjacent blocks merged, ``blocks`` keeps the original block ids for
    diagnostics, and ``mismatch`` is the statically-precomputed FIFO
    blocks disagreement the lockstep runner reports exactly like the
    interpreter would (or ``None``).  ``raw_steps[rank][i]`` is step
    ``i`` of the schedule's own rank program — the numbering crash
    steps, heartbeats and progress counts are expressed in — and
    ``needs[rank][i]`` the ``(peer, count)`` messages that step waits
    for.
    """

    describe_str: str
    nranks: int
    raw_steps: List[List[Tuple[tuple, tuple, tuple]]]
    needs: List[List[Tuple[Tuple[int, int], ...]]]
    sizes: Tuple[int, ...]

    def staging_pool(self, dtype: np.dtype) -> StagingPool:
        """A fresh :class:`StagingPool` covering every send size."""
        return StagingPool(self.sizes, dtype)


def _merge_ranges(
    block_ids: Sequence[int],
    starts: Sequence[int],
    stops: Sequence[int],
) -> Tuple[Tuple[Tuple[int, int], ...], int]:
    """Collapse a block-id sequence into merged (start, stop) slices.

    Blocks are gathered in tuple order; adjacent buffer ranges merge into
    one slice (pure concatenation — bit-identical to per-block copies).
    Returns ``(ranges, total_elements)``.
    """
    ranges: List[Tuple[int, int]] = []
    total = 0
    for b in block_ids:
        a, z = starts[b], stops[b]
        total += z - a
        if ranges and ranges[-1][1] == a:
            ranges[-1] = (ranges[-1][0], z)
        else:
            ranges.append((a, z))
    return tuple(ranges), total


@dataclass
class CompiledSchedule:
    """A schedule lowered to flat tables: its labels and its columns.

    Produced by :func:`repro.compile.compile_schedule`; content-addressed
    by the source schedule's
    :meth:`~repro.core.schedule.Schedule.fingerprint` in the compiled
    cache.  The rest is derived on first use and never pickled.
    """

    collective: str
    algorithm: str
    nranks: int
    nblocks: int
    root: Optional[int]
    k: Optional[int]
    source_fingerprint: str
    columns: Columns
    _messages: Optional[Messages] = field(
        default=None, repr=False, compare=False
    )
    _bind_cache: Dict[tuple, BoundSchedule] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __getstate__(self):
        """Pickle only the content: the labels and the columns."""
        return {f.name: getattr(self, f.name)
                for f in fields(self) if not f.name.startswith("_")}

    def __setstate__(self, state):
        """Rebuild from the content; the decoded columns become read-only,
        like the sealed ones lowering hands over."""
        self.__init__(**state)
        for arr in self.columns:
            arr.setflags(write=False)

    def describe(self) -> str:
        """One-line human description (matches the source schedule's)."""
        bits = [self.collective, self.algorithm, f"p={self.nranks}"]
        if self.k is not None:
            bits.append(f"k={self.k}")
        if self.root is not None:
            bits.append(f"root={self.root}")
        return " ".join(bits)

    def total_ops(self) -> int:
        """Total op count across every rank's tables."""
        return len(self.columns.kinds)

    @cached_property
    def programs(self) -> Tuple[CompiledProgram, ...]:
        """One read-only :class:`CompiledProgram` view per rank."""
        cols, tags = self.columns, self.messages().seq
        ops, steps = cols.op_ptr.tolist(), cols.step_ptr.tolist()
        segs = cols.seg_bounds[cols.op_ptr].tolist()
        views = []
        for r in range(self.nranks):
            lo, hi = ops[r], ops[r + 1]
            seg_bounds = cols.seg_bounds[lo:hi + 1] - segs[r]
            seg_bounds.setflags(write=False)
            views.append(CompiledProgram(
                rank=r,
                kinds=cols.kinds[lo:hi],
                peers=cols.peers[lo:hi],
                tags=tags[lo:hi],
                seg_bounds=seg_bounds,
                seg_blocks=cols.seg_blocks[segs[r]:segs[r + 1]],
                steps_raw=cols.steps_raw[steps[r]:steps[r + 1]],
            ))
        return tuple(views)

    @cached_property
    def staging_plan(self) -> StagingPlan:
        """The distinct send payload signatures, sorted."""
        return StagingPlan(signatures=tuple(sorted(self.columns.signatures)))

    @cached_property
    def fifo_mismatches(
        self,
    ) -> Dict[Tuple[int, int], Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """(rank, op index in that rank's program) → (in-flight message
        blocks, recv op blocks) for receives whose FIFO-matched message
        carries different blocks — so the compiled lockstep runner
        raises exactly where the interpreter would.  Only a malformed,
        hand-built schedule has any."""
        cols, fifo = self.columns, self.messages()
        if not len(fifo.mismatched):
            return {}
        bad = fifo.mismatched[np.argsort(fifo.recv_op[fifo.mismatched])]
        recv, send = fifo.recv_op[bad], fifo.send_op[bad]
        rank = cols.ranks()[recv]
        return dict(zip(
            zip(rank.tolist(), (recv - cols.op_ptr[rank]).tolist()),
            zip(cols.blocks_of(send), cols.blocks_of(recv)),
        ))

    def verify(self, schedule) -> None:
        """Check an artifact that arrived as bytes against its schedule.

        Delegates to :func:`repro.compile.verify.verify_compiled`; raises
        :class:`~repro.errors.CompileError` with rank/step-naming
        diagnostics on any table corruption.
        """
        from .verify import verify_compiled

        verify_compiled(self, schedule)

    # ------------------------------------------------------------------
    # Binding: tables × block geometry → executable action tuples
    # ------------------------------------------------------------------

    def bind(self, block_map) -> BoundSchedule:
        """Resolve the tables against ``block_map`` (cached per geometry)."""
        nb = self.nblocks
        if block_map.nblocks != nb:
            raise ExecutionError(
                f"block map has {block_map.nblocks} blocks but the "
                f"compiled schedule uses {nb}"
            )
        stops = tuple(block_map.range_of(b)[1] for b in range(nb))
        key = (block_map.total, stops)
        with self._lock:
            bound = self._bind_cache.get(key)
        if bound is not None:
            return bound
        bound = self._bind(block_map, stops)
        with self._lock:
            if len(self._bind_cache) >= _BIND_CACHE_MAX:
                self._bind_cache.pop(next(iter(self._bind_cache)))
            self._bind_cache[key] = bound
        return bound

    def _bind(self, block_map, stops: Tuple[int, ...]) -> BoundSchedule:
        starts = tuple(block_map.range_of(b)[0] for b in range(self.nblocks))
        raw_steps: List[List[Tuple[tuple, tuple, tuple]]] = []
        needs: List[List[Tuple[Tuple[int, int], ...]]] = []
        sizes = set()
        mismatches = self.fifo_mismatches
        for prog in self.programs:
            rank = prog.rank
            kinds = prog.kinds.tolist()
            peers = prog.peers.tolist()
            seg_bounds = prog.seg_bounds.tolist()
            seg_blocks = prog.seg_blocks.tolist()
            bounds = prog.steps_raw.tolist()
            steps = []
            step_needs = []
            for lo, hi in zip(bounds, bounds[1:]):
                sends: List[tuple] = []
                copies: List[tuple] = []
                recvs: List[tuple] = []
                per_peer: Dict[int, int] = {}
                for i in range(lo, hi):
                    kind = kinds[i]
                    blocks = seg_blocks[seg_bounds[i]:seg_bounds[i + 1]]
                    if kind == OP_COPY:
                        src, dst = blocks
                        s0, s1 = starts[src], stops[src]
                        d0, d1 = starts[dst], stops[dst]
                        if s1 - s0 != d1 - d0:
                            raise ExecutionError(
                                f"rank {rank}: copy between blocks of "
                                f"different sizes ({src}→{dst})"
                            )
                        copies.append((s0, s1, d0, d1))
                        continue
                    ranges, total = _merge_ranges(blocks, starts, stops)
                    peer = peers[i]
                    if kind == OP_SEND:
                        sends.append((peer, ranges, total))
                        sizes.add(total)
                    else:
                        recvs.append((
                            peer,
                            kind == OP_REDUCE_RECV,
                            ranges,
                            total,
                            tuple(blocks),
                            mismatches.get((rank, i)),
                        ))
                        per_peer[peer] = per_peer.get(peer, 0) + 1
                steps.append((tuple(sends), tuple(copies), tuple(recvs)))
                step_needs.append(tuple(per_peer.items()))
            raw_steps.append(steps)
            needs.append(step_needs)
        return BoundSchedule(
            describe_str=self.describe(),
            nranks=self.nranks,
            raw_steps=raw_steps,
            needs=needs,
            sizes=tuple(sorted(sizes)),
        )

    def messages(self) -> Messages:
        """The FIFO matching of the columns, runtime-only like the bound
        schedules: lowering hands over the schedule's own
        :meth:`~repro.core.schedule.Schedule.messages`, an artifact from
        disk or the wire derives it with the same
        :func:`~repro.core.schedule.match_fifo`."""
        fifo = self._messages
        if fifo is None:
            fifo = self._messages = match_fifo(self.columns)
        return fifo

