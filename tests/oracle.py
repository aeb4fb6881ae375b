"""The op-object IR and the op-by-op reference interpreter: the test
oracle.

:class:`SendOp`, :class:`RecvOp`, :class:`CopyOp`, :class:`Step` and
:class:`RankProgram` spell a schedule op by op.  The package never does:
a :class:`~repro.core.schedule.Schedule` is its columns.  The reference
builders and hand-written schedules under ``tests/`` author programs as
objects and walk them into columns (:func:`from_programs`); the
references that read a schedule op by op generate the objects back
(:func:`programs_of`).

:func:`run_schedule` walks every rank's IR program concurrently
(cooperatively, in a progress loop), matching messages between (src,
dst) pairs in FIFO order — the MPI non-overtaking rule — with its own
channels, independently of ``Schedule.messages()`` and of the step walk
the package reads.  It is parameterized over a :class:`DataModel`, so
the same matching logic drives:

* :class:`NumpyModel`, whose payloads are real array copies — the
  oracle ``tests/properties/test_compile_transparency.py`` compares
  every compiled table walker against, and
* a contribution-set model (``tests/test_step_walk.py``), the oracle
  ``repro.core.validate.verify`` is compared against.

Semantics implemented here (see :mod:`repro.core.schedule` for the
contract):

* when a rank *starts* a step, its sends snapshot the current local state
  and are enqueued immediately (nonblocking sends with unlimited buffering);
* local copies apply at step start, after the send snapshot;
* the step completes when every receive has a matching in-flight message;
  receives are applied in op order within the step;
* a full pass over all unfinished ranks with no postings and no completions
  is a deadlock, reported with the blocked ranks and what they wait for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Deque, Dict, Generic, Iterator, List, Optional, Protocol, Sequence,
    Tuple, TypeVar, Union,
)

import numpy as np

from repro.core.blocks import BlockMap
from repro.core.schedule import (
    OP_COPY, OP_RECV, OP_REDUCE_RECV, OP_SEND, Columns, Schedule, assemble,
)
from repro.errors import ExecutionError, ScheduleError
from repro.runtime.ops import SUM, ReduceOp

__all__ = [
    "SendOp", "RecvOp", "CopyOp", "Op", "Step", "RankProgram",
    "walk", "from_programs", "programs_of", "kernel_csr",
    "DataModel", "RunResult", "run_schedule", "NumpyModel", "empty_programs",
    "relative_rank", "absolute_rank", "all_blocks",
]

P = TypeVar("P")  # payload type


# The op-object IR: the reference builders, the hand-written schedules
# and the op-by-op walks under tests/ author and read schedules as these
# objects.  A schedule itself is its columns (repro.core.schedule); the
# two meet in :func:`walk` (objects → columns) and :func:`programs_of`
# (columns → objects).


@dataclass(frozen=True)
class SendOp:
    """Send ``blocks`` to ``peer``.

    ``blocks`` is an ordered tuple of block ids; the wire message is their
    concatenation in that order.  The matching :class:`RecvOp` must name
    block tuples of identical total size (ids may differ only for
    ``reduce`` receives of re-homed partials; for plain copies they must
    match element-for-element so positional semantics hold).
    """

    peer: int
    blocks: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ScheduleError("SendOp must carry at least one block")
        if len(set(self.blocks)) != len(self.blocks):
            raise ScheduleError(f"SendOp carries duplicate blocks: {self.blocks}")


@dataclass(frozen=True)
class RecvOp:
    """Receive ``blocks`` from ``peer``.

    With ``reduce=False`` the payload overwrites the local blocks.  With
    ``reduce=True`` it is combined into them with the collective's
    reduction operator (the receiving rank pays the γ·bytes compute cost in
    the simulator).
    """

    peer: int
    blocks: Tuple[int, ...]
    reduce: bool = False

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ScheduleError("RecvOp must name at least one block")
        if len(set(self.blocks)) != len(self.blocks):
            raise ScheduleError(f"RecvOp names duplicate blocks: {self.blocks}")


@dataclass(frozen=True)
class CopyOp:
    """Local copy of block ``src`` into block ``dst`` (no network traffic)."""

    src: int
    dst: int


Op = Union[SendOp, RecvOp, CopyOp]


@dataclass(frozen=True)
class Step:
    """A set of operations posted concurrently, then waited on together."""

    ops: Tuple[Op, ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ScheduleError("Step must contain at least one op")

    @property
    def sends(self) -> Tuple[SendOp, ...]:
        return tuple(op for op in self.ops if isinstance(op, SendOp))

    @property
    def recvs(self) -> Tuple[RecvOp, ...]:
        return tuple(op for op in self.ops if isinstance(op, RecvOp))

    @property
    def copies(self) -> Tuple[CopyOp, ...]:
        return tuple(op for op in self.ops if isinstance(op, CopyOp))


@dataclass
class RankProgram:
    """The ordered steps one rank executes.

    ``steps`` is a list while its author appends to it.  Walking it into
    a schedule (:func:`from_programs`) reads the program and leaves it as
    it is; the programs :func:`programs_of` generates from a schedule's
    columns hold ``steps`` as a tuple, and refuse every edit.
    """

    rank: int
    steps: Sequence[Step] = field(default_factory=list)

    def _refuse_if_sealed(self, what: str) -> None:
        if type(self.__dict__.get("steps")) is tuple:
            raise ScheduleError(
                f"rank {self.rank}: program is sealed (a view of a "
                f"Schedule) — build a new one instead of {what}"
            )

    def __setattr__(self, name: str, value: object) -> None:
        self._refuse_if_sealed(f"assigning {name!r}")
        object.__setattr__(self, name, value)

    def add(self, *ops: Op) -> None:
        """Append a step made of ``ops`` (convenience builder)."""
        self._refuse_if_sealed("adding a step")
        self.steps.append(Step(tuple(ops)))

    def add_step(self, ops: Sequence[Op]) -> None:
        """Append a step from a sequence of ops; empty sequences are ignored.

        Algorithms frequently build op lists conditionally (e.g. "send to
        children that exist"); tolerating empty lists here keeps their code
        free of boilerplate guards.
        """
        ops = tuple(ops)
        if ops:
            self._refuse_if_sealed("adding a step")
            self.steps.append(Step(ops))

    def iter_ops(self) -> Iterator[Tuple[int, Op]]:
        """Yield ``(step_index, op)`` over the whole program."""
        for i, step in enumerate(self.steps):
            for op in step.ops:
                yield i, op


def walk(programs: Sequence[RankProgram]) -> Columns:
    """Every op of ``programs`` as columns — peers and block ids still
    int64, so an id past int32 fails the range check instead of
    wrapping into range."""
    kinds: List[int] = []
    peers: List[int] = []
    nblk: List[int] = []
    seg_blocks: List[int] = []
    step_lens: List[int] = []
    nsteps: List[int] = []
    add_kind, add_peer = kinds.append, peers.append
    add_len, add_blocks = nblk.append, seg_blocks.extend
    add_step = step_lens.append
    for prog in programs:
        nsteps.append(len(prog.steps))
        for step in prog.steps:
            add_step(len(step.ops))
            for op in step.ops:
                if isinstance(op, SendOp):
                    blocks = op.blocks
                    add_kind(OP_SEND)
                    add_peer(op.peer)
                elif isinstance(op, RecvOp):
                    blocks = op.blocks
                    add_kind(OP_REDUCE_RECV if op.reduce else OP_RECV)
                    add_peer(op.peer)
                else:
                    blocks = (op.src, op.dst)
                    add_kind(OP_COPY)
                    add_peer(-1)
                add_len(len(blocks))
                add_blocks(blocks)
    try:
        wide_peers = np.asarray(peers, dtype=np.int64)
        wide_blocks = np.asarray(seg_blocks, dtype=np.int64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ScheduleError(f"peer or block ids out of range: {exc}") from None
    return assemble(
        np.asarray(kinds, dtype=np.int8), wide_peers,
        np.asarray(nblk, dtype=np.int64), wide_blocks,
        np.asarray(step_lens, dtype=np.int64),
        np.asarray(nsteps, dtype=np.int64),
    )


def from_programs(
    collective: str,
    algorithm: str,
    nranks: int,
    nblocks: int,
    programs: Sequence[RankProgram],
    root: Optional[int] = None,
    k: Optional[int] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Schedule:
    """A schedule from hand-written op objects: one program per rank,
    in rank order, walked once into columns
    (:meth:`~repro.core.schedule.Schedule.from_columns` checks the rest)."""
    if len(programs) != nranks:
        raise ScheduleError(
            f"expected {nranks} rank programs, got {len(programs)}"
        )
    for r, prog in enumerate(programs):
        if prog.rank != r:
            raise ScheduleError(f"program {r} has rank {prog.rank}")
    return Schedule.from_columns(collective, algorithm, nranks, nblocks,
                                 walk(programs), root=root, k=k, meta=meta)


def programs_of(schedule: Schedule) -> Tuple[RankProgram, ...]:
    """The op objects of ``schedule``'s columns: one sealed
    :class:`RankProgram` per rank."""
    cols = schedule.columns()
    blocks = cols.blocks_of(np.arange(len(cols.kinds)))
    ops: List[Op] = []
    kinds, peers = cols.kinds.tolist(), cols.peers.tolist()
    for kind, peer, ids in zip(kinds, peers, blocks):
        if kind == OP_SEND:
            ops.append(SendOp(peer=peer, blocks=ids))
        elif kind == OP_COPY:
            ops.append(CopyOp(*ids))
        else:
            reduce = kind == OP_REDUCE_RECV
            ops.append(RecvOp(peer=peer, blocks=ids, reduce=reduce))
    bounds = cols.step_starts()[0].tolist()
    step_ptr = cols.step_ptr.tolist()
    return tuple(
        RankProgram(rank=r, steps=tuple(
            Step(tuple(ops[a:b]))
            for a, b in zip(bounds[lo:hi - 1], bounds[lo + 1:hi])
        ))
        for r, (lo, hi) in enumerate(zip(step_ptr, step_ptr[1:]))
    )


def kernel_csr(ops: Sequence[Sequence[Sequence[int]]]) -> Dict[str, List[int]]:
    """Op codes written per actor, per step, as the kernel's flat
    ``codes`` / ``bounds`` / ``first`` keywords
    (:class:`~repro.core.schedule.SimPlan`'s layout).

    >>> kernel_csr([[[0], [2, 4]], [], [[1, 3, 5]]])
    {'codes': [0, 2, 4, 1, 3, 5], 'bounds': [0, 1, 3, 6], 'first': [0, 2, 2, 3]}
    """
    steps = [codes for actor in ops for codes in actor]
    bounds, first = [0], [0]
    for codes in steps:
        bounds.append(bounds[-1] + len(codes))
    for actor in ops:
        first.append(first[-1] + len(actor))
    return {"codes": [c for codes in steps for c in codes],
            "bounds": bounds, "first": first}


def empty_programs(p: int) -> List[RankProgram]:
    """One empty program per rank — where a hand-written schedule and the
    op-object reference builders kept under ``tests/`` start."""
    return [RankProgram(rank=r) for r in range(p)]


def relative_rank(rank: int, root: int, p: int) -> int:
    """Rank relative to the root (root becomes 0), MPICH-style."""
    return (rank - root + p) % p


def absolute_rank(relr: int, root: int, p: int) -> int:
    """Inverse of :func:`relative_rank`."""
    return (relr + root) % p


def all_blocks(nblocks: int) -> Tuple[int, ...]:
    """Tuple of every block id — whole-buffer sends/recvs."""
    return tuple(range(nblocks))


class DataModel(Protocol[P]):
    """Pluggable data semantics for :func:`run_schedule`."""

    def snapshot(self, rank: int, op: SendOp) -> P:
        """Capture the payload a send carries, from rank's current state."""

    def apply_recv(self, rank: int, op: RecvOp, payload: P) -> None:
        """Store (or reduce, per ``op.reduce``) an incoming payload."""

    def apply_copy(self, rank: int, op: CopyOp) -> None:
        """Apply a local block copy."""


@dataclass
class _Message(Generic[P]):
    """An in-flight message: the sender's block ids plus the payload."""

    blocks: Tuple[int, ...]
    payload: P


@dataclass
class RunResult:
    """Bookkeeping returned by :func:`run_schedule`.

    ``rank_steps`` is the per-rank completion state — how many steps each
    rank finished.  On a clean run it equals every program's length; it
    exists so recovery (:mod:`repro.recovery`) can report how far each
    rank got, the resume-state the shrink protocol's re-contribution
    semantics are defined against (DESIGN.md §11).
    """

    delivered_messages: int
    progress_passes: int
    rank_steps: Tuple[int, ...] = ()


def run_schedule(schedule: Schedule, model: DataModel[P]) -> RunResult:
    """Run ``schedule`` against ``model``; raises on deadlock or mismatch."""
    p = schedule.nranks
    programs = programs_of(schedule)
    channels: Dict[Tuple[int, int], Deque[_Message[P]]] = {}
    pc = [0] * p  # next step index per rank
    posted = [False] * p
    delivered = 0
    passes = 0

    def channel(src: int, dst: int) -> Deque[_Message[P]]:
        key = (src, dst)
        ch = channels.get(key)
        if ch is None:
            ch = channels[key] = deque()
        return ch

    # Compile the per-step receive requirements once: the progress loop
    # below revisits blocked steps on every pass, and re-filtering ops and
    # re-counting per-peer needs each time makes the loop O(passes × ops)
    # instead of O(passes + ops).
    step_recvs: List[List[List[RecvOp]]] = []
    step_needs: List[List[List[Tuple[int, int]]]] = []
    for rank in range(p):
        per_rank_recvs: List[List[RecvOp]] = []
        per_rank_needs: List[List[Tuple[int, int]]] = []
        for step in programs[rank].steps:
            recvs = [op for op in step.ops if isinstance(op, RecvOp)]
            needed: Dict[int, int] = {}
            for op in recvs:
                needed[op.peer] = needed.get(op.peer, 0) + 1
            per_rank_recvs.append(recvs)
            per_rank_needs.append(list(needed.items()))
        step_recvs.append(per_rank_recvs)
        step_needs.append(per_rank_needs)

    unfinished = sum(1 for r in range(p) if programs[r].steps)
    while unfinished:
        passes += 1
        changed = False
        for rank in range(p):
            steps = programs[rank].steps
            if pc[rank] >= len(steps):
                continue
            step = steps[pc[rank]]
            if not posted[rank]:
                # Post: snapshot + enqueue sends, then apply local copies.
                for op in step.ops:
                    if isinstance(op, SendOp):
                        channel(rank, op.peer).append(
                            _Message(op.blocks, model.snapshot(rank, op))
                        )
                for op in step.ops:
                    if isinstance(op, CopyOp):
                        model.apply_copy(rank, op)
                posted[rank] = True
                changed = True

            # The step's per-peer message needs were compiled up front;
            # check availability before consuming anything (a step is
            # atomic at the waitall boundary).
            ready = all(
                len(channels.get((peer, rank), ())) >= cnt
                for peer, cnt in step_needs[rank][pc[rank]]
            )
            if not ready:
                continue

            for op in step_recvs[rank][pc[rank]]:
                msg = channel(op.peer, rank).popleft()
                if msg.blocks != op.blocks:
                    raise ExecutionError(
                        f"{schedule.describe()}: rank {rank} step {pc[rank]} "
                        f"expected blocks {op.blocks} from rank {op.peer} "
                        f"but the in-flight message carries {msg.blocks}"
                    )
                model.apply_recv(rank, op, msg.payload)
                delivered += 1
            pc[rank] += 1
            posted[rank] = False
            changed = True
            if pc[rank] >= len(steps):
                unfinished -= 1

        if not changed and unfinished:
            blocked = _describe_blocked(schedule, pc, channels)
            raise ExecutionError(
                f"{schedule.describe()}: deadlock — no rank can make "
                f"progress.\n{blocked}"
            )

    leftovers = {k: len(v) for k, v in channels.items() if v}
    if leftovers:
        raise ExecutionError(
            f"{schedule.describe()}: {sum(leftovers.values())} message(s) "
            f"were sent but never received: {leftovers}"
        )
    return RunResult(
        delivered_messages=delivered,
        progress_passes=passes,
        rank_steps=tuple(pc),
    )


def _describe_blocked(
    schedule: Schedule,
    pc: List[int],
    channels: Dict[Tuple[int, int], Deque[Any]],
) -> str:
    """Build a human-readable deadlock report."""
    lines = []
    for rank, prog in enumerate(programs_of(schedule)):
        if pc[rank] >= len(prog.steps):
            continue
        step = prog.steps[pc[rank]]
        waits = []
        for op in step.ops:
            if isinstance(op, RecvOp):
                have = len(channels.get((op.peer, rank), ()))
                waits.append(f"recv{list(op.blocks)}<-{op.peer}(have {have})")
        lines.append(f"  rank {rank} at step {pc[rank]}: waiting on {waits}")
        if len(lines) >= 16:
            lines.append("  ... (truncated)")
            break
    return "\n".join(lines)


class NumpyModel:
    """Array-backed data model for :func:`run_schedule`.

    Payloads are contiguous copies of the named blocks (concatenated in
    block order), exactly what a real MPI message would carry for a
    non-contiguous datatype built from those blocks.
    """

    def __init__(
        self,
        blocks: BlockMap,
        buffers: List[np.ndarray],
        op: ReduceOp = SUM,
    ) -> None:
        self.blocks = blocks
        self.buffers = buffers
        self.op = op
        self.bytes_moved = 0  # elements, really; kept for stats

    def _gather_payload(self, rank: int, block_ids: Sequence[int]) -> np.ndarray:
        buf = self.buffers[rank]
        parts = [buf[slice(*self.blocks.range_of(b))] for b in block_ids]
        payload = np.concatenate(parts) if len(parts) > 1 else parts[0].copy()
        # np.concatenate already copies; the single-block path copies
        # explicitly so in-flight data never aliases the live buffer
        # (nonblocking-send snapshot semantics).
        return payload

    def snapshot(self, rank: int, op: SendOp) -> np.ndarray:
        payload = self._gather_payload(rank, op.blocks)
        self.bytes_moved += payload.size
        return payload

    def apply_recv(self, rank: int, op: RecvOp, payload: np.ndarray) -> None:
        buf = self.buffers[rank]
        pos = 0
        for b in op.blocks:
            start, stop = self.blocks.range_of(b)
            size = stop - start
            chunk = payload[pos : pos + size]
            if chunk.size != size:
                raise ExecutionError(
                    f"rank {rank}: payload for block {b} has {chunk.size} "
                    f"elements, expected {size}"
                )
            if op.reduce:
                self.op.apply(buf[start:stop], chunk)
            else:
                buf[start:stop] = chunk
            pos += size
        if pos != payload.size:
            raise ExecutionError(
                f"rank {rank}: payload of {payload.size} elements does not "
                f"match blocks {op.blocks} totalling {pos}"
            )

    def apply_copy(self, rank: int, op: CopyOp) -> None:
        buf = self.buffers[rank]
        s0, s1 = self.blocks.range_of(op.src)
        d0, d1 = self.blocks.range_of(op.dst)
        if s1 - s0 != d1 - d0:
            raise ExecutionError(
                f"rank {rank}: copy between blocks of different sizes "
                f"({op.src}→{op.dst})"
            )
        buf[d0:d1] = buf[s0:s1]
