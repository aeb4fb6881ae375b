"""Flat program tables: the compiled form of a schedule.

A :class:`CompiledSchedule` *is* its schedule's sealed, read-only
:class:`~repro.core.schedule.Columns` under the schedule's labels — one
table layout, nothing copied.  Each rank's :class:`CompiledProgram` is a
read-only view of it, one row per op in program order:

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

Only the columns are stored; ``tags`` derive from
:meth:`CompiledSchedule.messages`.  The executors read none of this:
they bind the schedule they hold
(:meth:`~repro.core.schedule.Schedule.bind`), and the simulator walks
the schedule's own :meth:`~repro.core.schedule.Schedule.sim_plan`.  The
artifact is what the tuning service ships and the compiled store tier
files; its :meth:`~CompiledSchedule.bind` is a shim onto the source
schedule's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.schedule import (
    OP_COPY,
    OP_RECV,
    OP_REDUCE_RECV,
    OP_SEND,
    BoundSchedule,
    Columns,
    Messages,
    Schedule,
    match_fifo,
)
from ..errors import CompileError

__all__ = [
    "OP_SEND",
    "OP_RECV",
    "OP_REDUCE_RECV",
    "OP_COPY",
    "OP_NAMES",
    "CompiledProgram",
    "CompiledSchedule",
    "StagingPool",
]


#: Human names for op codes, used in verification diagnostics.
OP_NAMES = {OP_SEND: "send", OP_RECV: "recv",
            OP_REDUCE_RECV: "reduce-recv", OP_COPY: "copy"}


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


class StagingPool:
    """Free-lists of reusable NumPy staging buffers, keyed by size
    (one per distinct send size of a
    :class:`~repro.core.schedule.BoundSchedule`, or none).

    Thread-safe: each free-list is a ``list``, whose ``append`` and
    ``pop`` are atomic, and the size→list dict is frozen at construction
    so worker threads only read it.  An empty free-list costs a truth
    test, not a raised exception: the lockstep walker acquires most
    payloads of a pass before any is released.  Recycling is only legal
    on the fault-free path: a
    :class:`~repro.faults.channel.LossyChannel` duplicate enqueues the
    *same* payload object twice, so under a fault plan payloads must
    stay immortal and the executors bypass the pool.
    """

    def __init__(self, sizes: Sequence[int], dtype: np.dtype) -> None:
        self._free: Dict[int, List[np.ndarray]] = {
            int(s): [] for s in set(sizes)
        }
        self.dtype = dtype
        self.allocations = 0

    def acquire(self, size: int) -> np.ndarray:
        """A buffer of exactly ``size`` elements (recycled when possible)."""
        free = self._free.get(size)
        if free:
            try:
                return free.pop()
            except IndexError:  # another thread took the last one
                pass
        self.allocations += 1
        return np.empty(size, dtype=self.dtype)

    def release(self, buf: np.ndarray) -> None:
        """Return a fully-consumed buffer to its free-list.  An array
        that does not own its data (a view of a rank buffer) is never
        taken: recycling it would hand a rank's memory out as staging."""
        free = self._free.get(buf.size)
        if free is not None and buf.base is None:
            free.append(buf)


@dataclass
class CompiledSchedule:
    """A schedule lowered to flat tables: its labels and its columns.

    Produced by :func:`repro.compile.compile_schedule`; content-addressed
    by the source schedule's
    :meth:`~repro.core.schedule.Schedule.fingerprint` in the compiled
    cache.  ``_source`` is the schedule lowering read, runtime-only (a
    decoded artifact has none); the rest is derived on first use and
    never pickled.
    """

    collective: str
    algorithm: str
    nranks: int
    nblocks: int
    root: Optional[int]
    k: Optional[int]
    source_fingerprint: str
    columns: Columns
    _source: Optional[Schedule] = field(
        default=None, repr=False, compare=False
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

    def verify(self, schedule) -> None:
        """Check an artifact that arrived as bytes against its schedule.

        Delegates to :func:`repro.compile.verify.verify_compiled`; raises
        :class:`~repro.errors.CompileError` with rank/step-naming
        diagnostics on any table corruption.
        """
        from .verify import verify_compiled

        verify_compiled(self, schedule)

    def bind(self, block_map) -> BoundSchedule:
        """The source schedule's :meth:`~repro.core.schedule.Schedule.
        bind`, one memo (a shim for the frozen benchmark, ROADMAP item
        15(b)); a decoded artifact has no source and refuses."""
        if self._source is None:
            raise CompileError(
                "a decoded compiled artifact cannot be bound — bind the "
                "Schedule it was verified against (schedule.bind(block_map))"
            )
        return self._source.bind(block_map)

    def messages(self) -> Messages:
        """The FIFO matching of the columns, runtime-only: the source
        schedule's own :meth:`~repro.core.schedule.Schedule.messages`
        after lowering; an artifact from disk or the wire derives it
        with the same :func:`~repro.core.schedule.match_fifo`."""
        if self._source is not None:
            return self._source.messages()
        return self._decoded_messages

    @cached_property
    def _decoded_messages(self) -> Messages:
        return match_fifo(self.columns)
