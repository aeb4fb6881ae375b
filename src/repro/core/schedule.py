"""Schedule intermediate representation (IR) for collective algorithms.

Every collective algorithm in this package compiles to an explicit,
static, per-rank *program*: a sequence of steps, where each step posts
a set of nonblocking operations concurrently and then waits for all of
them (the ``isend``/``irecv``/``waitall`` idiom the paper's MPICH
implementations use to exploit multi-port NICs and message buffering,
§II-B2).

The IR is deliberately tiny — three operation kinds, the op codes of
the ``kinds`` column, cover every algorithm in the paper:

* ``OP_SEND`` — send the named blocks to a peer.
* ``OP_RECV`` / ``OP_REDUCE_RECV`` — receive the named blocks from a
  peer; the reducing receive combines the incoming data into the local
  blocks with the collective's reduction operator instead of
  overwriting them.
* ``OP_COPY`` — local block-to-block copy (used by e.g. gather roots
  placing their own contribution, and Bruck-style rotations); its
  blocks are ``[src, dst]``.

Semantics contract shared by all executors and the simulator:

1. All ops inside one step are posted concurrently; the step completes when
   all complete ("waitall").
2. Send data is snapshotted when the step *starts* (nonblocking send
   semantics: later local writes don't alter in-flight messages).
3. Messages between a given (src, dst) pair match in FIFO order across the
   whole program (MPI non-overtaking rule on a single tag/communicator).
   :func:`match_fifo` pairs them once per schedule
   (:meth:`Schedule.messages`); every static consumer reads that table.
4. Reduction receives are applied in the order they appear within the step,
   making floating-point results deterministic.

A :class:`Schedule` is its labels and its :class:`Columns` — every op
as flat read-only arrays — and is **immutable once constructed**.
There is one way in: labels plus columns, checked by
``Schedule._seal``.  Every builder expands its algorithm straight into
columns (:meth:`Schedule.from_columns`), and a composite
(:func:`~repro.core.primitives.compose`,
:func:`~repro.core.primitives.dualize_allgather`,
:func:`~repro.core.hierarchical.remap_ranks`) is a whole-array
transform of its parts' columns.  A pickle is the labels and the
arrays, checked on load; a JSON document
(:func:`~repro.core.serialize.schedule_from_json`, the way to write a
schedule by hand) is read straight into columns.  Every way in refuses
an op with no block, a step with no op and a send or receive naming a
block twice, checks every peer and block id, and assigning a field
raises :class:`~repro.errors.ScheduleError` — so nothing derived from a
schedule (its :meth:`~Schedule.fingerprint`, its lowered tables, a
cache entry keyed by either) can go stale, and sub-schedules can be
shared between composites.  A variant that differs only in its labels
is a :meth:`Schedule.relabel` copy, not an edit.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import (
    ClassAnalysisError,
    ExecutionError,
    MachineError,
    ScheduleError,
)
from .blocks import BlockMap

__all__ = [
    "Schedule",
    "ScheduleStats",
    "Columns",
    "Messages",
    "SimPlan",
    "BoundSchedule",
    "assemble",
    "spans",
    "match_fifo",
    "build_sim_plan",
    "step_rounds",
    "step_levels",
    "OP_SEND",
    "OP_RECV",
    "OP_REDUCE_RECV",
    "OP_COPY",
]

#: Op codes of the flat ``kinds`` column (here and in its compiled
#: views, :class:`repro.compile.program.CompiledProgram`).
OP_SEND = 0
OP_RECV = 1
OP_REDUCE_RECV = 2
OP_COPY = 3


def spans(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The indices ``lo[0]:hi[0]``, then ``lo[1]:hi[1]``, … concatenated."""
    n = hi - lo
    return np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())


class Columns(NamedTuple):
    """Every op of a schedule as flat read-only arrays, rank-major in
    program order.

    A :class:`~repro.compile.program.CompiledSchedule` *is* these
    columns (DESIGN.md §14), all ranks concatenated:
    rank ``r`` owns ops ``op_ptr[r]:op_ptr[r + 1]`` and entries
    ``step_ptr[r]:step_ptr[r + 1]`` of ``steps_raw``.
    """

    kinds: np.ndarray  #: int8 op code per op
    peers: np.ndarray  #: int32 peer rank per op (−1 for copies)
    #: int64 ``[nops + 1]``: op ``i`` owns
    #: ``seg_blocks[seg_bounds[i]:seg_bounds[i + 1]]``
    seg_bounds: np.ndarray
    seg_blocks: np.ndarray  #: int32 block ids; a copy stores ``[src, dst]``
    #: int32: each rank's ``[nsteps + 1]`` step boundaries, counted in
    #: that rank's own ops
    steps_raw: np.ndarray
    op_ptr: np.ndarray  #: int64 ``[nranks + 1]``
    step_ptr: np.ndarray  #: int64 ``[nranks + 1]``

    @property
    def signatures(self) -> FrozenSet[Tuple[int, ...]]:
        """The distinct block tuples of the sends (the payload
        signatures), derived on every read: only the tests read them, so
        no build or load pays one tuple per send for them."""
        sends = np.flatnonzero(self.kinds == OP_SEND)
        blocks, bounds = self.seg_blocks.tolist(), self.seg_bounds
        return frozenset(
            tuple(blocks[lo:hi]) for lo, hi in zip(
                bounds[sends].tolist(), bounds[sends + 1].tolist()
            )
        )

    def ranks(self) -> np.ndarray:
        """int64 per op: the rank whose program holds it."""
        return np.repeat(np.arange(len(self.op_ptr) - 1), np.diff(self.op_ptr))

    def step_starts(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(first, opens)``: every ``steps_raw`` entry as a global op
        index, and whether it opens a step (each rank's last one closes
        its program)."""
        per_rank = np.diff(self.step_ptr)
        first = np.repeat(self.op_ptr[:-1], per_rank) + self.steps_raw
        opens = np.ones(len(first), dtype=bool)
        opens[self.step_ptr[1:] - 1] = False
        return first, opens

    def nsteps(self) -> np.ndarray:
        """int64 per rank: the number of steps in its program."""
        return np.diff(self.step_ptr) - 1

    def step_lens(self) -> np.ndarray:
        """int64 per step, rank-major in program order: its op count."""
        first, opens = self.step_starts()
        return np.diff(first)[opens[:-1]]

    def positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per op: the step of its rank's program that holds it, and its
        index within that step."""
        first, opens = self.step_starts()
        lens = np.diff(first)[opens[:-1]]
        local = np.arange(len(first)) - np.repeat(
            self.step_ptr[:-1], np.diff(self.step_ptr)
        )
        index = np.arange(len(self.kinds)) - np.repeat(first[opens], lens)
        return np.repeat(local[opens], lens), index

    def step_of(self) -> np.ndarray:
        """int64 per op: its step among all ranks' steps, numbered
        rank-major in program order — rank ``r``'s step ``j`` is
        ``step_ptr[r] - r + j`` (:func:`step_rounds` indexes by it)."""
        base = self.step_ptr[:-1] - np.arange(len(self.op_ptr) - 1)
        return self.positions()[0] + np.repeat(base, np.diff(self.op_ptr))

    def op_sizes(self, block_sizes: np.ndarray) -> np.ndarray:
        """int64 per op: the summed ``block_sizes`` of its blocks."""
        run = np.zeros(len(self.seg_blocks) + 1, dtype=np.int64)
        np.cumsum(block_sizes[self.seg_blocks], out=run[1:])
        return run[self.seg_bounds[1:]] - run[self.seg_bounds[:-1]]

    def gather(self, ops: np.ndarray) -> np.ndarray:
        """The block ids of ``ops``, concatenated in that order."""
        bounds = self.seg_bounds
        return self.seg_blocks[spans(bounds[ops], bounds[ops + 1])]

    def blocks_of(self, ops: np.ndarray) -> List[Tuple[int, ...]]:
        """The block ids of each op of ``ops``, one tuple per op."""
        blocks, bounds = self.seg_blocks.tolist(), self.seg_bounds.tolist()
        return [tuple(blocks[bounds[i]:bounds[i + 1]]) for i in ops.tolist()]

    def take(self, ranks: np.ndarray) -> "Columns":
        """The programs of ``ranks`` alone, in that order (peers keep
        their rank numbers)."""
        lo, hi = self.op_ptr[ranks], self.op_ptr[ranks + 1]
        s0, s1 = self.step_ptr[ranks], self.step_ptr[ranks + 1]
        ops = spans(lo, hi)
        return Columns(
            kinds=self.kinds[ops],
            peers=self.peers[ops],
            seg_bounds=np.concatenate(
                ([0], np.cumsum(np.diff(self.seg_bounds)[ops]))
            ),
            seg_blocks=self.gather(ops),
            steps_raw=self.steps_raw[spans(s0, s1)],
            op_ptr=np.concatenate(([0], np.cumsum(hi - lo))),
            step_ptr=np.concatenate(([0], np.cumsum(s1 - s0))),
        )


class Messages(NamedTuple):
    """A schedule's FIFO matching (contract 3) as flat columns of global
    op indices into :class:`Columns` — computed by :func:`match_fifo`,
    the one place the rule is written out.  Unmatched traffic (only a
    malformed hand-built schedule has any) is listed, never refused:
    each reader raises its own error.
    """

    #: int32 per op: its running index on its directed channel (−1 for
    #: copies) — the compiled ``tags`` column
    seq: np.ndarray
    #: int64 per message, the i-th matched send in program order: the
    #: send and the receive it matches
    send_op: np.ndarray
    recv_op: np.ndarray
    mismatched: np.ndarray  #: messages whose two ops name other blocks
    unmatched_sends: np.ndarray  #: op indices, in channel order
    unmatched_recvs: np.ndarray  #: op indices, in channel order

    def unmatched(self, cols: Columns) -> Optional[str]:
        """The first unmatched op in program order, sends before
        receives, worded as the simulator reports it; ``None`` when every
        op is matched."""
        rank, peers = cols.ranks(), cols.peers
        if len(self.unmatched_sends):
            i = self.unmatched_sends.min()
            return f"unmatched send {rank[i]}->{peers[i]}"
        if len(self.unmatched_recvs):
            i = self.unmatched_recvs.min()
            return f"unmatched receive on channel {(int(peers[i]), int(rank[i]))}"
        return None


def _running_index(chan: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, seq)``: the stable sort of ``chan`` and each entry's
    running index among the entries equal to it."""
    order = np.argsort(chan, kind="stable")
    ranked = chan[order]
    first = np.ones(len(chan), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(first)
    run = np.diff(np.append(starts, len(chan)))
    seq = np.empty(len(chan), dtype=np.int64)
    seq[order] = np.arange(len(chan)) - np.repeat(starts, run)
    return order, seq


def match_fifo(cols: Columns) -> Messages:
    """Pair every send with its receive: on each directed ``(src, dst)``
    channel the n-th send matches the n-th receive.

    One stable sort of the channel ids per direction gives each op its
    running index; a send and its receive share ``(channel, seq)``.
    """
    kinds, p = cols.kinds, len(cols.op_ptr) - 1
    rank, peers = cols.ranks(), cols.peers.astype(np.int64)
    is_send = kinds == OP_SEND
    send_at = np.flatnonzero(is_send)
    recv_at = np.flatnonzero(~is_send & (kinds != OP_COPY))
    send_chan = rank[send_at] * p + peers[send_at]
    recv_chan = peers[recv_at] * p + rank[recv_at]
    send_order, send_seq = _running_index(send_chan)
    recv_order, recv_seq = _running_index(recv_chan)
    seq = np.full(len(kinds), -1, dtype=np.int32)
    seq[send_at] = send_seq
    seq[recv_at] = recv_seq

    # Receive keys ascending, then a sentinel no send key equals.
    width = len(kinds) + 1
    recv_key = np.append((recv_chan * width + recv_seq)[recv_order], -1)
    send_key = send_chan * width + send_seq
    at = np.searchsorted(recv_key[:-1], send_key)
    hit = recv_key[at] == send_key
    send_op, recv_op = send_at[hit], recv_at[recv_order[at[hit]]]
    taken = np.zeros(len(recv_at), dtype=bool)
    taken[at[hit]] = True

    # Matched pairs name the same blocks unless the schedule is malformed.
    nblk = np.diff(cols.seg_bounds)
    differ = nblk[send_op] != nblk[recv_op]
    same = np.flatnonzero(~differ)
    if len(same):
        neq = cols.gather(send_op[same]) != cols.gather(recv_op[same])
        lens = nblk[send_op[same]]
        differ[same] = np.logical_or.reduceat(neq, np.cumsum(lens) - lens)
    fifo = Messages(
        seq=seq,
        send_op=send_op,
        recv_op=recv_op,
        mismatched=np.flatnonzero(differ),
        unmatched_sends=send_at[send_order][~hit[send_order]],
        unmatched_recvs=recv_at[recv_order][~taken],
    )
    for arr in fifo:
        arr.setflags(write=False)
    return fifo


#: Cap on per-plan route entries (distinct machine geometries).
_ROUTE_CACHE_MAX = 8


@dataclass
class SimPlan:
    """What the simulator needs of a schedule, as flat columns.

    The actors are the schedule's ranks (:meth:`Schedule.sim_plan`:
    message ``i`` is message ``i`` of the schedule's :class:`Messages` —
    the ``i``-th send in rank order, program order, and the receive it
    matches) or, in a *class plan*
    (:attr:`repro.compile.classes.RankClasses.plan`), the class
    representatives in class order, each send delivered to its
    counterpart receive in the receiver class's representative.  Per
    message: the endpoints ``src`` / ``dst``, the channel sequence
    number ``seq``, whether the receive reduces, and the block ids it
    carries (CSR: ``blk_ids[blk_ptr[i]:blk_ptr[i + 1]]``).  The actors'
    programs are CSR too, copies dropped (the simulator models them as
    free): ``codes`` holds every op's ``msg << 1 | is_recv``,
    actor-major in program order; global step ``g`` is
    ``codes[bounds[g]:bounds[g + 1]]``, and actor ``a`` owns global
    steps ``first[a]:first[a + 1]``.  ``link`` is set on a class plan
    only: each message's link class, fixed by the real ranks it stands
    for.  ``routes`` memoizes, per machine geometry, what the simulator
    derives from the endpoints (link classes, held resources, flattened
    and as tuples) and the kernel's contention hint, and ``_digest``
    the :meth:`digest`; both are runtime-only.  Numbers only — never a
    per-message or per-step object.  Built only by
    :func:`build_sim_plan`.
    """

    src: List[int]
    dst: List[int]
    seq: List[int]
    reduce: np.ndarray
    blk_ptr: np.ndarray
    blk_ids: np.ndarray
    codes: np.ndarray
    bounds: np.ndarray
    first: np.ndarray
    link: Optional[np.ndarray] = None
    routes: Dict[tuple, tuple] = field(default_factory=dict, repr=False)
    _digest: Optional[bytes] = field(default=None, repr=False)

    @property
    def nactors(self) -> int:
        """Number of actors (ranks, or class representatives)."""
        return len(self.first) - 1

    def digest(self) -> bytes:
        """A 16-byte blake2b over everything of the plan the kernel reads
        (memoized): ``codes``, ``bounds``, ``first``, ``src``, ``dst``
        and ``seq``, each framed by its length, then ``reduce`` and a
        class plan's ``link``.

        The bytes are little-endian NumPy ``int64`` / ``(u)int8`` buffers,
        never a pickle, so equal tables digest equally however they were
        made — from a schedule built fresh, or loaded from a store or
        the wire.
        """
        d = self._digest
        if d is None:
            h = hashlib.blake2b(digest_size=16)
            for col in (self.codes, self.bounds, self.first,
                        self.src, self.dst, self.seq):
                arr = np.asarray(col, dtype="<i8")
                h.update(len(arr).to_bytes(8, "little"))
                h.update(arr.tobytes())
            h.update(np.asarray(self.reduce, dtype=np.uint8).tobytes())
            if self.link is not None:
                h.update(np.asarray(self.link, dtype=np.int8).tobytes())
            d = self._digest = h.digest()
        return d

    def message_bytes(self, block_sizes: Sequence[int]) -> np.ndarray:
        """Per-message byte counts under per-block ``block_sizes``: one
        segment sum over the block-size vector."""
        sizes = np.asarray(block_sizes, dtype=np.int64)
        csum = np.concatenate(([0], np.cumsum(sizes[self.blk_ids])))
        return csum[self.blk_ptr[1:]] - csum[self.blk_ptr[:-1]]

    def route(self, key: tuple, make) -> tuple:
        """``make()`` memoized under ``key`` (bounded, oldest out)."""
        entry = self.routes.get(key)
        if entry is None:
            if len(self.routes) >= _ROUTE_CACHE_MAX:
                self.routes.pop(next(iter(self.routes)))
            entry = self.routes[key] = make()
        return entry


def build_sim_plan(
    cols: Columns,
    recv_at: np.ndarray,
    seq: np.ndarray,
    link: Optional[np.ndarray] = None,
) -> SimPlan:
    """The one way a :class:`SimPlan` is made: actor programs plus where
    each send is delivered.

    ``cols`` holds one program per actor, actor-major (a schedule's
    ranks, or the class representatives, :meth:`Columns.take`).
    Message ``i`` is its ``i``-th send in program order, delivered to
    op ``recv_at[i]``, with channel sequence number ``seq[i]`` and, on
    a class plan, link class ``link[i]``.  Every receive must be the
    target of exactly one send and nothing else a target, or
    :class:`~repro.errors.ClassAnalysisError` names the first op that
    is not.
    """
    kinds, actor = cols.kinds, cols.ranks()
    recv_at = np.asarray(recv_at, dtype=np.int64)
    send_at = np.flatnonzero(kinds == OP_SEND)
    is_recv = (kinds == OP_RECV) | (kinds == OP_REDUCE_RECV)
    bad = np.flatnonzero(np.bincount(recv_at, minlength=len(kinds)) != is_recv)
    if len(bad):
        g = int(bad[0])
        a = int(actor[g])
        where = f"actor {a} op {g - int(cols.op_ptr[a])}"
        if not is_recv[g]:
            raise ClassAnalysisError(
                f"{where} is not a receive but a send targets it"
            )
        raise ClassAnalysisError(
            f"{where}: {int(np.sum(recv_at == g))} sends deliver to this "
            f"receive, not one"
        )
    msg = np.full(len(kinds), -1, dtype=np.int64)
    msg[send_at] = msg[recv_at] = np.arange(len(send_at))

    # Op codes, copies dropped; each step boundary re-counted in them.
    # A rank's boundaries run from 0 to its op count, so its closing
    # boundary is the next rank's opening one.
    moves = kinds != OP_COPY
    code_t = np.int32 if 2 * len(send_at) < 1 << 31 else np.int64
    codes = ((msg << 1) | is_recv)[moves].astype(code_t)
    before = np.zeros(len(kinds) + 1, dtype=np.int64)
    np.cumsum(moves, out=before[1:])
    starts, opens = cols.step_starts()
    bounds = np.append(before[starts[opens]], len(codes))

    # CSR of the sends' block ids, gathered out of the segment table.
    blk_len = np.diff(cols.seg_bounds)[send_at]
    return SimPlan(
        src=actor[send_at].tolist(),
        dst=actor[recv_at].tolist(),
        seq=np.asarray(seq).tolist(),
        reduce=kinds[recv_at] == OP_REDUCE_RECV,
        blk_ptr=np.concatenate(([0], np.cumsum(blk_len))),
        blk_ids=cols.gather(send_at),
        codes=codes,
        bounds=bounds,
        first=cols.step_ptr - np.arange(len(cols.step_ptr)),
        link=link,
    )


#: Cap on per-schedule bind memo entries (distinct block geometries).
_BIND_CACHE_MAX = 8

#: Guards the eviction and insertion of every schedule's bind memo: a
#: :class:`~repro.runtime.session.Session`'s rank threads bind one shared
#: schedule at once.  The binding itself runs outside it.
_BIND_LOCK = threading.Lock()


@dataclass
class BoundSchedule:
    """A schedule resolved against one block geometry
    (:meth:`Schedule.bind`): executable step tuples.

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
    for.  ``sizes`` are the distinct send payload sizes, sorted.

    ``views[rank][i]`` holds one bool per send of that step, in order: a
    send is a *view* when its ranges merge into one slice that its rank
    never writes again from step ``i`` on (no copy destination and no
    receive of step ``i`` or later touches its blocks).  The data walkers
    hand such a send to the receiver as ``buf[a:b]`` instead of a staged
    snapshot: nothing can change those elements before, or after, the
    receiver reads them, so the bytes delivered are the same.  That holds
    only while the walker that runs the rank's later steps is the one
    that sent, over buffers no other rank writes (which
    :func:`~repro.runtime.buffers.buffer_count` enforces); a
    :class:`~repro.runtime.session.Session` rank returns to its caller
    before its peers have read its sends, so ``Comm`` snapshots every
    send and never reads this field.
    """

    describe_str: str
    nranks: int
    raw_steps: List[List[Tuple[tuple, tuple, tuple]]]
    needs: List[List[Tuple[Tuple[int, int], ...]]]
    sizes: Tuple[int, ...]
    views: List[List[Tuple[bool, ...]]]


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


def step_rounds(
    cols: Columns, fifo: Messages, rendezvous: Optional[np.ndarray] = None
) -> np.ndarray:
    """The round in which every step completes, or −1 if it never does —
    the one step-dependency walk over the FIFO matching.

    Steps are numbered rank-major in program order (:meth:`Columns.
    step_of`).  Ops post when their rank enters a step; a step completes
    once its rank completed the step before and each of its receives
    has its matched send posted — and each send flagged in
    ``rendezvous`` (a bool per op; ``None``: every send is eager) has
    its matched receive posted.  An op with nothing to match never
    completes.  In each round every rank whose current step can complete
    completes it, so a step's round exceeds the rounds of all it waited
    on: the walk's order is a topological order of the step graph, and
    the final counters are the unique fixpoint of the progress rule.
    """
    p = len(cols.op_ptr) - 1
    nsteps = cols.nsteps()
    base = cols.step_ptr[:-1] - np.arange(p)
    rank, (step, _) = cols.ranks(), cols.positions()
    gstep = base[rank] + step
    waiter, on = [fifo.recv_op], [fifo.send_op]
    lone = [fifo.unmatched_recvs]
    if rendezvous is not None:
        waiter.append(fifo.send_op[rendezvous[fifo.send_op]])
        on.append(fifo.recv_op[rendezvous[fifo.send_op]])
        lone.append(fifo.unmatched_sends[rendezvous[fifo.unmatched_sends]])
    waiter, on = np.concatenate(waiter + lone), np.concatenate(on)
    # Waiter ``i`` may complete once op ``on[i]`` is posted — once its
    # rank's counter reaches its step; the ``lone`` waiters past the end
    # of ``on`` have nothing to match and wait on a step no rank reaches.
    dep_rank = np.zeros(len(waiter), dtype=np.int64)
    dep_step = np.full(len(waiter), np.iinfo(np.int64).max)
    dep_rank[:len(on)] = rank[on]
    dep_step[:len(on)] = step[on]
    # Grouped by waiting step: step g waits on ``dep_ptr[g]:dep_ptr[g + 1]``.
    order = np.argsort(gstep[waiter], kind="stable")
    dep_rank, dep_step = dep_rank[order], dep_step[order]
    dep_ptr = np.searchsorted(
        gstep[waiter][order], np.arange(int(nsteps.sum()) + 1)
    )

    done = np.full(len(dep_ptr) - 1, -1, dtype=np.int64)
    pc = np.zeros(p, dtype=np.int64)
    live = np.flatnonzero(nsteps)
    t = 0
    while len(live):
        at = base[live] + pc[live]
        lo, n = dep_ptr[at], dep_ptr[at + 1] - dep_ptr[at]
        deps = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
        blocked = np.zeros(len(live), dtype=bool)
        blocked[np.repeat(np.arange(len(live)), n)[
            pc[dep_rank[deps]] < dep_step[deps]
        ]] = True
        if blocked.all():
            break
        done[at[~blocked]] = t
        pc[live[~blocked]] += 1
        live = live[pc[live] < nsteps[live]]
        t += 1
    return done


def step_levels(
    done: np.ndarray, into: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Round by round of the walk ``done``: the steps that complete in
    it, and the messages whose receiving step (``into``, per message)
    is among them — the order of a max-plus pass over the walk."""
    steps = np.argsort(done, kind="stable")
    msgs = np.argsort(done[into], kind="stable")
    rounds = np.arange(int(done.max(initial=-1)) + 2)
    step_at = np.searchsorted(done[steps], rounds)
    msg_at = np.searchsorted(done[into][msgs], rounds)
    for t in rounds[:-1]:
        yield steps[step_at[t]:step_at[t + 1]], msgs[msg_at[t]:msg_at[t + 1]]


def assemble(
    kinds: np.ndarray,
    peers: np.ndarray,
    nblk: np.ndarray,
    seg_blocks: np.ndarray,
    step_lens: np.ndarray,
    nsteps: np.ndarray,
) -> Columns:
    """:class:`Columns` from their content, everything rank-major in
    program order: per op its code, peer and block count, the ops'
    block ids concatenated, the op count of every step, and the step
    count of every rank.  The pointers follow; nothing is checked
    (:class:`Schedule` checks ranges).
    """
    p = len(nsteps)
    seg_bounds = np.zeros(len(kinds) + 1, dtype=np.int64)
    np.cumsum(nblk, out=seg_bounds[1:])
    step_ptr = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(np.asarray(nsteps) + 1, out=step_ptr[1:])
    # Ops are rank-major, so a rank's step boundaries are the running
    # op count at its steps' ends, less the ops of the ranks before it.
    run = np.zeros(len(step_lens) + 1, dtype=np.int64)
    np.cumsum(step_lens, out=run[1:])
    op_ptr = run[step_ptr - np.arange(p + 1)]
    owner = np.repeat(np.arange(p), nsteps)
    steps_raw = np.zeros(int(step_ptr[-1]), dtype=np.int32)
    steps_raw[np.arange(len(step_lens)) + owner + 1] = run[1:] - op_ptr[owner]
    return Columns(
        kinds=np.asarray(kinds, dtype=np.int8),
        peers=peers,
        seg_bounds=seg_bounds,
        seg_blocks=seg_blocks,
        steps_raw=steps_raw,
        op_ptr=op_ptr,
        step_ptr=step_ptr,
    )


def _empty_error(cols: Columns) -> Optional[str]:
    """The first op with no block, else the first step with no op,
    rank-major, worded with its rank; ``None`` when there is none."""
    empty = np.flatnonzero(np.diff(cols.seg_bounds) < 1)
    if len(empty):
        r = int(cols.ranks()[empty[0]])
        return f"rank {r}: an op must carry at least one block"
    first, opens = cols.step_starts()
    empty = np.flatnonzero(opens[:-1] & (np.diff(first) < 1))
    if len(empty):
        r = int(np.searchsorted(cols.step_ptr, empty[0], "right")) - 1
        step = int(empty[0] - cols.step_ptr[r])
        return f"rank {r}: step {step} must contain at least one op"
    return None


def _duplicate_error(cols: Columns) -> Optional[str]:
    """The first send or receive, rank-major in program order, that
    names a block twice, worded with its rank; ``None`` when there is
    none.  Copies are exempt (a copy may copy a block onto itself).
    One pass finds the ops whose ids do not strictly ascend; only those
    are sorted."""
    blocks, bounds = cols.seg_blocks, cols.seg_bounds
    falls = blocks[1:] <= blocks[:-1]
    falls[bounds[1:-1] - 1] = False  # an op's first id follows another op
    if not falls.any():
        return None
    op = np.searchsorted(bounds, np.flatnonzero(falls) + 1, "right") - 1
    op = op[np.diff(op, prepend=-1) != 0]
    op = op[cols.kinds[op] != OP_COPY]
    if not len(op):
        return None
    nblk = np.diff(bounds)[op]
    owner = np.repeat(np.arange(len(op)), nblk)
    ids = cols.gather(op)
    ids = ids[np.lexsort((ids, owner))]
    twice = owner[1:][(ids[1:] == ids[:-1]) & (owner[1:] == owner[:-1])]
    if not len(twice):
        return None
    i = op[twice.min()]
    r = int(cols.ranks()[i])
    named = cols.blocks_of(np.array([i]))[0]
    if cols.kinds[i] == OP_SEND:
        return f"rank {r}: a send carries duplicate blocks: {named}"
    return f"rank {r}: a receive names duplicate blocks: {named}"


def _range_error(cols: Columns, nranks: int, nblocks: int) -> Optional[str]:
    """The first op, rank-major in program order, whose peer is out of
    range or its own rank, or whose block ids are — worded; ``None``
    when there is none.  One comparison per column on the way in."""
    kinds, peers, blocks = cols.kinds, cols.peers, cols.seg_blocks
    moves = kinds != OP_COPY
    bad_peer = moves & ((peers < 0) | (peers >= nranks))
    rank = cols.ranks()
    to_self = moves & (peers == rank)
    bad_block = (blocks < 0) | (blocks >= nblocks)
    if not (bad_peer.any() or to_self.any() or bad_block.any()):
        return None
    bad = bad_peer | to_self
    owner = np.repeat(np.arange(len(kinds)), np.diff(cols.seg_bounds))
    bad[owner[bad_block]] = True
    i = int(np.argmax(bad))
    r = int(rank[i])
    if bad_peer[i]:
        return f"rank {r}: peer {int(peers[i])} out of range (p={nranks})"
    if to_self[i]:
        return f"rank {r}: self-communication is not allowed"
    lo, hi = cols.seg_bounds[i], cols.seg_bounds[i + 1]
    out = blocks[lo:hi][bad_block[lo:hi]].tolist()
    if kinds[i] == OP_COPY:
        return f"rank {r}: copy block {out[0]} out of range"
    return f"rank {r}: blocks {out} out of range (nblocks={nblocks})"


#: The arrays of :class:`Columns` — what a pickled :class:`Schedule`
#: carries besides its labels, each as its little-endian dtype tag and
#: raw bytes (no NumPy object is pickled).
_ARRAYS = {
    name: np.dtype(code)
    for name, code in (
        ("kinds", "<i1"),
        ("peers", "<i4"),
        ("seg_bounds", "<i8"),
        ("seg_blocks", "<i4"),
        ("steps_raw", "<i4"),
        ("op_ptr", "<i8"),
        ("step_ptr", "<i8"),
    )
}


def _loaded_columns(state: object, nranks: int) -> Columns:
    """Columns from the arrays of a pickled :class:`Schedule`, checked
    before anything indexes through them: every array's dtype and
    size, every pointer's length, ends and monotonicity, every step
    boundary, the op codes and the copies' form.  Empty ops and steps
    and ranges are the :class:`Schedule`'s own checks, run next."""

    def damaged(what: str) -> ScheduleError:
        return ScheduleError(f"schedule blob is damaged: {what}")

    if not isinstance(state, dict) or set(state) != set(_ARRAYS):
        raise damaged(f"expected the columns {sorted(_ARRAYS)}")
    arrays = {}
    for name, dtype in _ARRAYS.items():
        entry = state[name]
        if (not isinstance(entry, tuple) or len(entry) != 2
                or entry[0] != dtype.str or not isinstance(entry[1], bytes)
                or len(entry[1]) % dtype.itemsize):
            raise damaged(f"{name} is not a flat {dtype.str} column")
        arrays[name] = np.frombuffer(entry[1], dtype=dtype)
    kinds, peers = arrays["kinds"], arrays["peers"]
    seg_bounds, seg_blocks = arrays["seg_bounds"], arrays["seg_blocks"]
    steps_raw, op_ptr, step_ptr = (
        arrays["steps_raw"], arrays["op_ptr"], arrays["step_ptr"]
    )

    def pointer(name: str, ptr: np.ndarray, size: int, end: int,
                rise: int) -> None:
        if (len(ptr) != size or ptr[0] != 0 or ptr[-1] != end
                or (np.diff(ptr) < rise).any()):
            raise damaged(
                f"{name} is not {size} offsets from 0 to {end}, each "
                f"at least {rise} past the one before"
            )

    nops = len(kinds)
    pointer("op_ptr", op_ptr, nranks + 1, nops, 0)
    if len(peers) != nops:
        raise damaged(f"peers has {len(peers)} entries for {nops} ops")
    pointer("seg_bounds", seg_bounds, nops + 1, len(seg_blocks), 0)
    pointer("step_ptr", step_ptr, nranks + 1, len(steps_raw), 1)
    # Each rank's boundaries run from 0 to its op count (an empty op or
    # step is every entry's refusal, :func:`_empty_error`).
    first, last = step_ptr[:-1], step_ptr[1:] - 1
    rises = np.diff(steps_raw) >= 0
    rises[last[:-1]] = True
    if (steps_raw[first].any() or not rises.all()
            or (steps_raw[last] != np.diff(op_ptr)).any()):
        raise damaged("steps_raw does not split each rank's ops into steps")
    if ((kinds < OP_SEND) | (kinds > OP_COPY)).any():
        raise damaged("kinds holds an unknown op code")
    copies = kinds == OP_COPY
    if (np.diff(seg_bounds)[copies] != 2).any() or (peers[copies] != -1).any():
        raise damaged("a copy is not [src, dst] with peer -1")
    return Columns(**arrays)


#: The fields :meth:`Schedule.relabel` may change: labels, not content
#: that would need checking against the columns.
_LABELS = frozenset(("collective", "algorithm", "root", "k", "meta"))


#: The refusal of a blob pickled before schedules were their columns.
_OLD_LAYOUT = (
    "schedule blob predates the column layout (store format 5): its op "
    "objects are no longer read — rebuild it"
)

#: The labels a schedule carries beside its columns, in order.
_LABEL_NAMES = ("collective", "algorithm", "nranks", "nblocks", "root", "k",
                "meta")


def _checked_labels(raw: Dict[str, object], what: str) -> Dict[str, object]:
    """The labels of ``raw`` — a pickle's state or a JSON document —
    by name, refused as ``what`` unless the names are strings, the
    sizes ints with at least one rank, ``root`` ``None`` or a rank,
    ``k`` ``None`` or an int and ``meta`` a dict (a ``bool`` is not an
    int here)."""
    labels = {name: raw.get(name) for name in _LABEL_NAMES}
    collective, algorithm, nranks, nblocks, root, k, meta = labels.values()
    if not (isinstance(collective, str) and isinstance(algorithm, str)
            and type(nranks) is type(nblocks) is int and nranks >= 1
            and all(v is None or type(v) is int for v in (root, k))
            and (root is None or 0 <= root < nranks)
            and isinstance(meta, dict)):
        raise ScheduleError(f"{what}: labels {list(labels.values())!r}")
    return labels


def _check_root(root: Optional[int], nranks: int) -> None:
    """Refuse a ``root`` that is neither ``None`` nor a rank."""
    if root is not None and not 0 <= root < nranks:
        raise ScheduleError(f"root {root} is not a rank of {nranks}")


class Schedule:
    """A complete collective schedule: its labels and its columns.

    Immutable once constructed (see the module docstring); ``meta`` is
    a plain annotation dict, not content — it is neither fingerprinted
    nor frozen.  There is no constructor: :meth:`from_columns` takes
    the columns a builder's expansion, a composite's transform or the
    JSON import made, and unpickling checks the arrays it reads — both
    end in ``_seal``.

    Attributes
    ----------
    collective:
        One of ``bcast | reduce | gather | scatter | allgather | allreduce
        | reduce_scatter``.
    algorithm:
        Human-readable algorithm name (e.g. ``"knomial"``); radix is stored
        separately in ``k``.
    nranks:
        Number of participating processes.
    nblocks:
        Granularity of the block partition this schedule assumes.  Whole
        buffer tree algorithms use 1, scatter/ring-family use ``nranks``.
    root:
        Root rank for rooted collectives, ``None`` otherwise.
    k:
        Radix / group-size parameter, ``None`` for fixed algorithms.
    meta:
        Annotations (phase counts, radices, …), ``{}`` when there are
        none.
    """

    collective: str
    algorithm: str
    nranks: int
    nblocks: int
    root: Optional[int]
    k: Optional[int]
    meta: Dict[str, object]

    @classmethod
    def from_columns(
        cls,
        collective: str,
        algorithm: str,
        nranks: int,
        nblocks: int,
        columns: Columns,
        *,
        root: Optional[int] = None,
        k: Optional[int] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> "Schedule":
        """A schedule over ``columns`` — what a builder's or a
        composite's whole-array expansion, or the JSON import, built —
        checked like every way in."""
        sched = object.__new__(cls)
        sched._seal(collective, algorithm, nranks, nblocks, columns, root, k,
                    meta)
        return sched

    def _seal(
        self,
        collective: str,
        algorithm: str,
        nranks: int,
        nblocks: int,
        columns: Columns,
        root: Optional[int],
        k: Optional[int],
        meta: Optional[Dict[str, object]],
    ) -> None:
        """Take the labels and the columns, refuse an op with no block,
        a step with no op or a send or receive that names a block twice,
        range-check the columns, make them
        read-only (peers and block ids as int32), and refuse assignment
        from now on — the last step of every way a schedule comes to
        be."""
        if nranks < 1:
            raise ScheduleError(f"nranks must be >= 1, got {nranks}")
        _check_root(root, nranks)
        error = (_empty_error(columns) or _duplicate_error(columns)
                 or _range_error(columns, nranks, nblocks))
        if error is not None:
            raise ScheduleError(error)
        columns = columns._replace(
            peers=columns.peers.astype(np.int32, copy=False),
            seg_blocks=columns.seg_blocks.astype(np.int32, copy=False),
        )
        for arr in columns:
            arr.setflags(write=False)
        self.__dict__.update(
            collective=collective, algorithm=algorithm, nranks=nranks,
            nblocks=nblocks, root=root, k=k,
            meta={} if meta is None else meta, _columns=columns, _sealed=True,
        )

    def __setattr__(self, name: str, value: object) -> None:
        if "_sealed" in self.__dict__:
            raise ScheduleError(
                f"{self.describe()}: schedules are immutable — derive a "
                f"relabel()ed copy or build a new Schedule instead of "
                f"assigning {name!r}"
            )
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise ScheduleError(
            f"{self.describe()}: schedules are immutable (del {name!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            self._labels() == other._labels()
            and self.meta == other.meta
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.columns(), other.columns())
            )
        )

    def __repr__(self) -> str:
        return f"Schedule({self.describe()})"

    def _labels(self) -> Tuple[object, ...]:
        return (self.collective, self.algorithm, self.nranks, self.nblocks,
                self.root, self.k)

    def __getstate__(self) -> Dict[str, object]:
        # Labels, meta and the column arrays; the memos are rederived.
        cols = self.columns()
        return {
            "collective": self.collective, "algorithm": self.algorithm,
            "nranks": self.nranks, "nblocks": self.nblocks,
            "root": self.root, "k": self.k, "meta": self.meta,
            "columns": {
                name: (dtype.str, getattr(cols, name).astype(dtype).tobytes())
                for name, dtype in _ARRAYS.items()
            },
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        if not isinstance(state, dict) or "columns" not in state:
            raise ScheduleError(_OLD_LAYOUT)
        labels = _checked_labels(state, "schedule blob is damaged")
        self._seal(columns=_loaded_columns(state["columns"], labels["nranks"]),
                   **labels)

    def relabel(self, **labels: object) -> "Schedule":
        """A copy under other labels (``collective``, ``algorithm``,
        ``root``, ``k``, ``meta``) that shares this schedule's
        :meth:`columns`.

        How a builder derives a renamed variant of a schedule it already
        has: nothing is copied and only a new ``root`` is checked again.
        The copy's fingerprint and :meth:`bind` memo are its own (labels
        are part of the digest and of the bound tuples) while its
        :meth:`messages` and :meth:`sim_plan` are this schedule's (labels
        do not change the traffic).
        """
        unknown = set(labels) - _LABELS
        if unknown:
            raise ScheduleError(
                f"relabel() changes labels only, not {sorted(unknown)}"
            )
        _check_root(labels.get("root", self.root), self.nranks)
        labels.setdefault("meta", dict(self.meta))
        twin = object.__new__(Schedule)
        twin.__dict__.update(self.__dict__, **labels)
        for memo in ("_fingerprint", "_bound"):
            twin.__dict__.pop(memo, None)
        return twin

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    def block_map(self, total: int) -> BlockMap:
        """Partition ``total`` units (bytes or elements) into this
        schedule's blocks."""
        return BlockMap(total, self.nblocks)

    def describe(self) -> str:
        """One-line human description used in reports and tracebacks."""
        bits = [self.collective, self.algorithm, f"p={self.nranks}"]
        if self.k is not None:
            bits.append(f"k={self.k}")
        if self.root is not None:
            bits.append(f"root={self.root}")
        return " ".join(bits)

    def columns(self) -> Columns:
        """The schedule's content (DESIGN.md §14): every op as flat
        read-only columns, range-checked when the schedule was made —
        by a builder's expansion, a composite's transform or the JSON
        import, or by loading a pickle (which also checks the arrays'
        layout)."""
        return self.__dict__["_columns"]

    def messages(self) -> Messages:
        """The FIFO matching of this schedule's traffic (:class:`Messages`).

        Computed at most once per object, like the fingerprint; never
        pickled.
        """
        memo = self.__dict__.get("_messages")
        if memo is None:
            memo = self.__dict__["_messages"] = match_fifo(self.columns())
        return memo

    def sim_plan(self) -> SimPlan:
        """The kernel table the simulator walks (:class:`SimPlan`, one
        actor per rank), built from :meth:`messages`.

        Computed at most once per object and never pickled, like
        :meth:`messages`; a :meth:`relabel` copy made after the first
        call shares it.  Unmatched traffic (only a malformed hand-built
        schedule has any) raises :class:`~repro.errors.MachineError`
        naming the first unmatched op.
        """
        memo = self.__dict__.get("_sim_plan")
        if memo is None:
            cols, fifo = self.columns(), self.messages()
            lone = fifo.unmatched(cols)
            if lone is not None:
                raise MachineError(f"{self.describe()}: {lone}")
            memo = self.__dict__["_sim_plan"] = build_sim_plan(
                cols, fifo.recv_op, fifo.seq[fifo.send_op]
            )
        return memo

    def bind(self, block_map: BlockMap) -> BoundSchedule:
        """The schedule resolved against ``block_map``: the step tuples
        every data walker runs (:class:`BoundSchedule`).

        Memoised per block geometry, at most :data:`_BIND_CACHE_MAX`
        geometries (the oldest goes first), and never pickled, like
        :meth:`sim_plan`; a :meth:`relabel` copy binds anew.  Threads
        may bind one schedule at once: a race binds twice and keeps one.
        """
        nb = self.nblocks
        if block_map.nblocks != nb:
            raise ExecutionError(
                f"block map has {block_map.nblocks} blocks but the "
                f"schedule uses {nb}"
            )
        stops = tuple(block_map.range_of(b)[1] for b in range(nb))
        key = (block_map.total, stops)
        memo = self.__dict__.setdefault("_bound", {})
        bound = memo.get(key)
        if bound is None:
            bound = self._bind(block_map, stops)
            with _BIND_LOCK:
                if key not in memo and len(memo) >= _BIND_CACHE_MAX:
                    memo.pop(next(iter(memo)))
                bound = memo.setdefault(key, bound)
        return bound

    def _bind(self, block_map: BlockMap,
              stops: Tuple[int, ...]) -> BoundSchedule:
        """One pass over the columns, rank by rank and step by step:
        blocks become merged buffer slices.  Each rank's pass also keeps
        the last step that writes each block, and a one-slice send is a
        view when none of its blocks is written at its step or later."""
        cols, fifo = self.columns(), self.messages()
        starts = tuple(block_map.range_of(b)[0] for b in range(self.nblocks))
        # The FIFO-mismatch table: receive op → (in-flight message blocks,
        # its own blocks), so the runners raise where the interpreter
        # would.  Only a malformed, hand-built schedule has any.
        mismatches = {}
        if len(fifo.mismatched):
            send, recv = (fifo.send_op[fifo.mismatched],
                          fifo.recv_op[fifo.mismatched])
            mismatches = dict(zip(recv.tolist(), zip(cols.blocks_of(send),
                                                     cols.blocks_of(recv))))
        kinds, peers = cols.kinds.tolist(), cols.peers.tolist()
        seg_bounds = cols.seg_bounds.tolist()
        seg_blocks = cols.seg_blocks.tolist()
        first = cols.step_starts()[0].tolist()
        step_ptr = cols.step_ptr.tolist()
        raw_steps: List[List[Tuple[tuple, tuple, tuple]]] = []
        needs: List[List[Tuple[Tuple[int, int], ...]]] = []
        views: List[List[Tuple[bool, ...]]] = []
        sizes = set()
        for rank in range(self.nranks):
            bounds = first[step_ptr[rank]:step_ptr[rank + 1]]
            steps = []
            step_needs = []
            # block -> the last step of this rank that writes it, and the
            # one-slice sends as (step, position, blocks).
            last_write: Dict[int, int] = {}
            slices: List[Tuple[int, int, List[int]]] = []
            for step, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
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
                        last_write[dst] = step
                        continue
                    ranges, total = _merge_ranges(blocks, starts, stops)
                    peer = peers[i]
                    if kind == OP_SEND:
                        if len(ranges) == 1:
                            slices.append((step, len(sends), blocks))
                        sends.append((peer, ranges, total))
                        sizes.add(total)
                    else:
                        for b in blocks:
                            last_write[b] = step
                        recvs.append((
                            peer,
                            kind == OP_REDUCE_RECV,
                            ranges,
                            total,
                            tuple(blocks),
                            mismatches.get(i),
                        ))
                        per_peer[peer] = per_peer.get(peer, 0) + 1
                steps.append((tuple(sends), tuple(copies), tuple(recvs)))
                step_needs.append(tuple(per_peer.items()))
            flags = [[False] * len(sends) for sends, _, _ in steps]
            for step, j, blocks in slices:
                flags[step][j] = all(
                    last_write.get(b, -1) < step for b in blocks
                )
            raw_steps.append(steps)
            needs.append(step_needs)
            views.append([tuple(f) for f in flags])
        return BoundSchedule(
            describe_str=self.describe(),
            nranks=self.nranks,
            raw_steps=raw_steps,
            needs=needs,
            sizes=tuple(sorted(sizes)),
            views=views,
        )

    def columns_digest(self) -> bytes:
        """A 16-byte blake2b over the content alone: ``nranks``,
        ``nblocks`` and every column, as the little-endian dtypes a
        pickle carries (:data:`_ARRAYS`), each framed by its length.

        Everything class analysis reads of a schedule
        (:func:`repro.compile.classes.classify`: the columns, their FIFO
        matching and the two sizes) is a function of these bytes, so it
        is the schedule's part of the partition cache key.  Labels are
        not content: a :meth:`relabel` copy shares the digest, while
        :meth:`fingerprint` tells it apart.  Computed at most once per
        object and never pickled, like :meth:`sim_plan`.
        """
        memo = self.__dict__.get("_columns_digest")
        if memo is None:
            cols = self.columns()
            h = hashlib.blake2b(digest_size=16)
            h.update(np.array([self.nranks, self.nblocks], dtype="<i8"))
            for name, dtype in _ARRAYS.items():
                arr = np.ascontiguousarray(getattr(cols, name), dtype=dtype)
                h.update(len(arr).to_bytes(8, "little"))
                h.update(arr)
            memo = self.__dict__["_columns_digest"] = h.digest()
        return memo

    def fingerprint(self) -> str:
        """Stable content hash over every step of every rank program.

        Two schedules with equal fingerprints are step-for-step identical
        (same ops, same order, same metadata-bearing parameters).  The
        schedule cache's key→content contract and the golden cost tests
        are checked against this.  Computed at most once per object —
        a schedule cannot change.
        """
        memo = self.__dict__.get("_fingerprint")
        if memo is None:
            memo = self.__dict__["_fingerprint"] = self._digest()
        return memo

    def _digest(self) -> str:
        # The digest is sha256 of
        #   header "|P" {"|S" {op}} ...      one |P per rank, |S per step
        #   op = "|s<peer>:<b,b,…>" | "|r<peer>:<b,b,…>:<reduce>"
        #      | "|c<src>:<dst>"
        # and has been since the first pinned golden.  The text is
        # assembled from the columns: every token's position is index
        # arithmetic, the tokens are looked up and joined once.
        cols = self.columns()
        kinds, bounds, op_ptr = cols.kinds, cols.seg_bounds, cols.op_ptr
        nops = len(kinds)
        nnum = max(self.nranks, self.nblocks)
        vocab = np.array(
            [*map(str, range(nnum)),
             "|P", "|S", "|s", "|r", "|c", ":", ",", ":0", ":1"],
            dtype=object,
        )
        prog_, step_, send_, recv_, copy_, colon, comma, tail0 = range(
            nnum, nnum + 8
        )
        nblk = np.diff(bounds)
        moves = kinds != OP_COPY
        recvs = moves & (kinds != OP_SEND)
        # Tokens in front of an op: "|S" when it opens a step, and one
        # "|P" per rank begun since the previous op (ranks may be empty).
        opens = np.zeros(nops, dtype=np.int64)
        first, keep = cols.step_starts()
        opens[first[keep]] = 1
        busy = np.flatnonzero(np.diff(op_ptr))
        begun = np.zeros(nops, dtype=np.int64)
        begun[op_ptr[busy]] = np.diff(busy, prepend=-1)
        trailing = self.nranks - 1 - (int(busy[-1]) if len(busy) else -1)
        body = 2 * nblk + 2 * moves + recvs
        width = begun + opens + body
        head = np.cumsum(width) - body
        tok = np.full(int(width.sum()) + trailing, comma, dtype=np.int64)
        at = np.flatnonzero(begun)
        tok[np.repeat(head[at] - opens[at] - begun[at], begun[at])
            + np.arange(begun.sum())
            - np.repeat(np.cumsum(begun[at]) - begun[at], begun[at])] = prog_
        tok[len(tok) - trailing:] = prog_
        tok[head[opens == 1] - 1] = step_
        tok[head] = np.array([send_, recv_, recv_, copy_])[kinds]
        tok[head + 2] = colon
        tok[head[moves] + 1] = cols.peers[moves]
        tok[head[recvs] + 2 + 2 * nblk[recvs]] = tail0 + (
            kinds[recvs] == OP_REDUCE_RECV
        )
        tok[np.repeat(head + 1 + 2 * moves - 2 * bounds[:-1], nblk)
            + 2 * np.arange(len(cols.seg_blocks))] = cols.seg_blocks
        text = (
            f"{self.collective}|{self.algorithm}|{self.nranks}|"
            f"{self.nblocks}|{self.root}|{self.k}"
            + "".join(vocab[tok].tolist())
        )
        return hashlib.sha256(text.encode()).hexdigest()

    def stats(self) -> "ScheduleStats":
        """Aggregate message/step statistics (topology-agnostic), read
        off the columns."""
        cols = self.columns()
        sends = cols.kinds == OP_SEND
        moves = cols.step_of()[cols.kinds != OP_COPY]
        return ScheduleStats(
            messages=int(sends.sum()),
            blocks_sent=int(np.diff(cols.seg_bounds)[sends].sum()),
            max_steps=int(cols.nsteps().max()),
            max_concurrent_ops=int(np.bincount(moves).max(initial=0)),
            reduce_receives=int((cols.kinds == OP_REDUCE_RECV).sum()),
        )


@dataclass(frozen=True)
class ScheduleStats:
    """Summary statistics of a schedule (see :meth:`Schedule.stats`)."""

    messages: int
    blocks_sent: int
    max_steps: int
    max_concurrent_ops: int
    reduce_receives: int
