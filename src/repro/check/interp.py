"""Static message-matching interpreter over the Schedule IR.

This is the engine under :mod:`repro.check`'s deadlock detector.  It
never moves data and never touches the DES: it reads *which send
matches which recv* from the schedule's one FIFO matching
(:meth:`~repro.core.schedule.Schedule.messages` — the MPI non-overtaking
rule: per ``(src, dst)`` channel, the n-th send matches the n-th recv)
and asks the schedule's one step walk
(:func:`~repro.core.schedule.step_rounds`) how far every rank can get
under a chosen send-completion semantics:

eager (threshold = ``None``)
    A send completes the moment it is posted (unlimited buffering).
    This is exactly the contract every executor and
    :func:`repro.core.validate.verify` implement, so a schedule that
    deadlocks here deadlocks everywhere.
rendezvous (threshold = ``0``)
    A send completes only once the receiver has *posted* the matching
    recv — i.e. the receiver's program counter has reached the step
    containing it (ops post at step entry).  This is the conservative
    MPI semantics for messages above the eager limit; a schedule clean
    here is deadlock-free at any eager threshold.
eager-threshold (threshold = ``t`` bytes)
    Sends whose payload is ``<= t`` bytes behave eagerly, larger ones
    rendezvous — the mixed regime real MPI runs in, where "works on my
    laptop" schedules break at scale when payloads cross the limit.

The walk is sound and complete for this IR because progress is
monotone: once a rank's counter can advance it never retracts, so the
set of reachable counters has a unique maximal element regardless of
visit order.  Any rank left short of program end is genuinely stuck, and
:func:`waits_of` / :func:`find_cycle` turn the stuck state into the
exact wait-for cycle (ranks, steps, ops) for the diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.schedule import (
    OP_COPY,
    OP_RECV,
    OP_REDUCE_RECV,
    OP_SEND,
    Columns,
    Schedule,
    step_rounds,
)

__all__ = [
    "OpRef",
    "op_at",
    "op_name",
    "Matching",
    "match_channels",
    "InterpResult",
    "interpret",
]


@dataclass(frozen=True)
class OpRef:
    """Location of one op inside a schedule: ``(rank, step, index)``.

    ``index`` is the position within the step's ops, in program order
    (:meth:`Columns.positions <repro.core.schedule.Columns.positions>`)
    — together the triple names an op unambiguously, which is what every
    diagnostic prints.
    """

    rank: int
    step: int
    index: int


def op_at(cols: Columns, ref: OpRef) -> int:
    """The global op index (into ``cols``) of the op ``ref`` names."""
    row = int(cols.step_ptr[ref.rank]) + ref.step
    return int(cols.op_ptr[ref.rank] + cols.steps_raw[row]) + ref.index


def op_name(cols: Columns, i: int) -> str:
    """Op ``i`` of ``cols`` as diagnostics print it: ``send[b, …]->peer``,
    ``recv[…]<-peer``, ``recv+reduce[…]<-peer`` or ``copy src->dst``."""
    kind, peer = int(cols.kinds[i]), int(cols.peers[i])
    lo, hi = cols.seg_bounds[i], cols.seg_bounds[i + 1]
    blocks = cols.seg_blocks[lo:hi].tolist()
    if kind == OP_SEND:
        return f"send{blocks}->{peer}"
    if kind == OP_COPY:
        return f"copy {blocks[0]}->{blocks[1]}"
    recv = "recv+reduce" if kind == OP_REDUCE_RECV else "recv"
    return f"{recv}{blocks}<-{peer}"


@dataclass
class Matching:
    """Static FIFO matching of sends to recvs per ``(src, dst)`` channel.

    ``send_to_recv`` / ``recv_to_send`` map matched pairs both ways;
    ``unmatched_sends`` are messages that would sit in a channel forever
    (``verify``'s "sent but never received" error), ``unmatched_recvs``
    are waits that can never be satisfied (a guaranteed hang), and
    ``mismatched`` lists the matched ``(send, recv)`` pairs whose block
    lists differ, in the sends' program order.
    """

    send_to_recv: Dict[OpRef, OpRef] = field(default_factory=dict)
    recv_to_send: Dict[OpRef, OpRef] = field(default_factory=dict)
    unmatched_sends: List[OpRef] = field(default_factory=list)
    unmatched_recvs: List[OpRef] = field(default_factory=list)
    mismatched: List[Tuple[OpRef, OpRef]] = field(default_factory=list)


def match_channels(schedule: Schedule) -> Matching:
    """The schedule's FIFO send/recv pairing
    (:meth:`~repro.core.schedule.Schedule.messages`) as :class:`OpRef`
    locations; unmatched ops are listed channel by channel."""
    cols, fifo = schedule.columns(), schedule.messages()
    step, index = cols.positions()
    refs = list(
        map(OpRef, cols.ranks().tolist(), step.tolist(), index.tolist())
    )
    sends = [refs[i] for i in fifo.send_op.tolist()]
    recvs = [refs[i] for i in fifo.recv_op.tolist()]
    return Matching(
        send_to_recv=dict(zip(sends, recvs)),
        recv_to_send=dict(zip(recvs, sends)),
        unmatched_sends=[refs[i] for i in fifo.unmatched_sends.tolist()],
        unmatched_recvs=[refs[i] for i in fifo.unmatched_recvs.tolist()],
        mismatched=[(sends[m], recvs[m]) for m in fifo.mismatched.tolist()],
    )


@dataclass
class InterpResult:
    """Outcome of the step walk for one send-completion semantics.

    ``pc[r]`` is how many steps rank ``r`` completed; ``stuck`` lists the
    ranks whose counter stopped short of program end.  ``deadlocked`` is
    their non-emptiness.
    """

    mode: str
    pc: List[int]
    stuck: List[int]
    eager_threshold: Optional[int] = None
    nbytes: int = 0

    @property
    def deadlocked(self) -> bool:
        """True when at least one rank could not finish its program."""
        return bool(self.stuck)


def interpret(
    schedule: Schedule,
    *,
    eager_threshold: Optional[int] = None,
    nbytes: int = 0,
) -> InterpResult:
    """How far every rank gets under the given send semantics: the
    schedule's step walk (:func:`~repro.core.schedule.step_rounds`) with
    the sends that rendezvous flagged.

    ``eager_threshold=None`` is fully eager, ``0`` fully rendezvous, any
    other value the mixed regime (payloads ``<= threshold`` bytes eager).
    ``nbytes`` sizes payloads for the threshold comparison and is unused
    when the threshold is ``None`` or ``0``.
    """
    cols = schedule.columns()
    rendezvous = _rendezvous(schedule, eager_threshold, nbytes)
    done = step_rounds(cols, schedule.messages(), rendezvous)
    p = schedule.nranks
    nsteps = cols.nsteps()
    pc = np.bincount(
        np.repeat(np.arange(p), nsteps)[done >= 0], minlength=p
    )
    mode = (
        "eager"
        if eager_threshold is None
        else ("rendezvous" if eager_threshold <= 0 else f"eager<={eager_threshold}")
    )
    return InterpResult(
        mode=mode,
        pc=pc.tolist(),
        stuck=np.flatnonzero(pc < nsteps).tolist(),
        eager_threshold=eager_threshold,
        nbytes=nbytes,
    )


def _rendezvous(
    schedule: Schedule, eager_threshold: Optional[int], nbytes: int
) -> Optional[np.ndarray]:
    """Per op, whether it is a send that waits for its matched receive
    to be posted: none eagerly (``None``), every send at threshold
    ``<= 0``, and otherwise the sends whose payload exceeds it."""
    if eager_threshold is None:
        return None
    cols = schedule.columns()
    rendezvous = cols.kinds == OP_SEND
    if eager_threshold > 0:
        sizes = np.asarray(schedule.block_map(nbytes).sizes, np.int64)
        rendezvous &= cols.op_sizes(sizes) > eager_threshold
    return rendezvous


@dataclass(frozen=True)
class Wait:
    """One unsatisfied dependency of a stuck rank.

    ``waiter`` is the blocked op; ``on`` is the matched op it needs
    posted (``None`` when no match exists — an unsatisfiable wait)."""

    waiter: OpRef
    on: Optional[OpRef]
    kind: str  # "recv" (wait for send) or "send" (rendezvous wait for recv)


def waits_of(schedule: Schedule, result: InterpResult) -> Dict[int, List[Wait]]:
    """The unsatisfied dependencies of every stuck rank, in op order."""
    out: Dict[int, List[Wait]] = {}
    matching = match_channels(schedule)
    cols = schedule.columns()
    rendezvous = _rendezvous(schedule, result.eager_threshold, result.nbytes)
    for rank in result.stuck:
        step_idx = result.pc[rank]
        lo = op_at(cols, OpRef(rank, step_idx, 0))
        hi = op_at(cols, OpRef(rank, step_idx + 1, 0))
        pending: List[Wait] = []
        for i, kind in enumerate(cols.kinds[lo:hi].tolist(), start=lo):
            ref = OpRef(rank, step_idx, i - lo)
            if kind in (OP_RECV, OP_REDUCE_RECV):
                dep = matching.recv_to_send.get(ref)
                if dep is None or result.pc[dep.rank] < dep.step:
                    pending.append(Wait(ref, dep, "recv"))
            elif kind == OP_SEND and rendezvous is not None and rendezvous[i]:
                dep = matching.send_to_recv.get(ref)
                if dep is None or result.pc[dep.rank] < dep.step:
                    pending.append(Wait(ref, dep, "send"))
        out[rank] = pending
    return out


def find_cycle(
    schedule: Schedule, result: InterpResult
) -> Optional[List[Wait]]:
    """Extract one wait-for cycle among the stuck ranks, if any exists.

    Edges run from a blocked rank to the rank whose unposted op it waits
    on.  Unsatisfiable waits (no matching op at all) have no edge — a
    rank stuck only on those is reported separately, not as a cycle.
    """
    all_waits = waits_of(schedule, result)
    edges: Dict[int, Wait] = {}
    for rank, pending in all_waits.items():
        for wait in pending:
            if wait.on is not None and wait.on.rank in all_waits:
                edges[rank] = wait
                break

    for start in sorted(edges):
        seen: Dict[int, int] = {}
        path: List[Wait] = []
        node = start
        while node in edges and node not in seen:
            seen[node] = len(path)
            path.append(edges[node])
            node = edges[node].on.rank  # type: ignore[union-attr]
        if node in seen:
            return path[seen[node]:]
    return None
