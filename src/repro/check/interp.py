"""Static message-matching interpreter over the Schedule IR.

This is the engine under :mod:`repro.check`'s deadlock detector.  It
never moves data and never touches the DES: it reads *which send
matches which recv* from the schedule's one FIFO matching
(:meth:`~repro.core.schedule.Schedule.messages` — the MPI non-overtaking
rule: per ``(src, dst)`` channel, the n-th send matches the n-th recv),
then runs a monotone fixpoint over per-rank program counters to decide
how far every rank can get under a chosen send-completion semantics:

eager (threshold = ``None``)
    A send completes the moment it is posted (unlimited buffering).
    This is exactly the contract :func:`repro.core.runner.run_schedule`
    implements, so a schedule that deadlocks here deadlocks everywhere.
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

The fixpoint is sound and complete for this IR because progress is
monotone: once a rank's counter can advance it never retracts, so the
set of reachable counters has a unique maximal element regardless of
visit order.  Any rank left short of program end is genuinely stuck, and
:func:`waits_of` / :func:`find_cycle` turn the stuck state into the
exact wait-for cycle (ranks, steps, ops) for the diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.blocks import BlockMap
from ..core.schedule import RecvOp, Schedule, SendOp

__all__ = ["OpRef", "Matching", "match_channels", "InterpResult", "interpret"]


@dataclass(frozen=True)
class OpRef:
    """Location of one op inside a schedule: ``(rank, step, index)``.

    ``index`` is the position within ``Step.ops`` — together the triple
    names an op unambiguously, which is what every diagnostic prints.
    """

    rank: int
    step: int
    index: int


@dataclass
class Matching:
    """Static FIFO matching of sends to recvs per ``(src, dst)`` channel.

    ``send_to_recv`` / ``recv_to_send`` map matched pairs both ways;
    ``unmatched_sends`` are messages that would sit in a channel forever
    (the runner's "sent but never received" error), ``unmatched_recvs``
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
    step, index = cols.steps()
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
    """Outcome of the fixpoint for one send-completion semantics.

    ``pc[r]`` is how many steps rank ``r`` completed; ``stuck`` lists the
    ranks whose counter stopped short of program end.  ``deadlocked`` is
    their non-emptiness.
    """

    mode: str
    pc: List[int]
    stuck: List[int]
    matching: Matching
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
    matching: Optional[Matching] = None,
) -> InterpResult:
    """Run the monotone progress fixpoint under the given send semantics.

    ``eager_threshold=None`` is fully eager, ``0`` fully rendezvous, any
    other value the mixed regime (payloads ``<= threshold`` bytes eager).
    ``nbytes`` sizes payloads for the threshold comparison and is unused
    when the threshold is ``None`` or ``0``.
    """
    if matching is None:
        matching = match_channels(schedule)
    p = schedule.nranks
    programs = schedule.programs
    blocks: Optional[BlockMap] = (
        schedule.block_map(nbytes)
        if eager_threshold not in (None, 0)
        else None
    )

    def send_is_rendezvous(op: SendOp) -> bool:
        if eager_threshold is None:
            return False
        if eager_threshold <= 0:
            return True
        assert blocks is not None
        return blocks.bytes_of(op.blocks) > eager_threshold

    # Precompute, per (rank, step): the match refs its completion waits
    # on.  Recvs always wait on their matching send being posted;
    # rendezvous sends additionally wait on their matching recv being
    # posted.  Unmatched ops wait forever (None sentinel).
    waits: List[List[List[Optional[OpRef]]]] = []
    for rank in range(p):
        per_rank: List[List[Optional[OpRef]]] = []
        for step_idx, step in enumerate(programs[rank].steps):
            deps: List[Optional[OpRef]] = []
            for op_idx, op in enumerate(step.ops):
                ref = OpRef(rank, step_idx, op_idx)
                if isinstance(op, RecvOp):
                    deps.append(matching.recv_to_send.get(ref))
                elif isinstance(op, SendOp) and send_is_rendezvous(op):
                    deps.append(matching.send_to_recv.get(ref))
            per_rank.append(deps)
        waits.append(per_rank)

    pc = [0] * p
    lengths = [len(programs[r].steps) for r in range(p)]
    changed = True
    while changed:
        changed = False
        for rank in range(p):
            # A rank may clear several steps per sweep once its peers
            # have advanced; loop until this rank blocks again.
            while pc[rank] < lengths[rank]:
                deps = waits[rank][pc[rank]]
                # An op at (q, j) is posted iff rank q has entered step
                # j, i.e. pc[q] >= j (ops post at step entry).
                if any(d is None or pc[d.rank] < d.step for d in deps):
                    break
                pc[rank] += 1
                changed = True

    stuck = [r for r in range(p) if pc[r] < lengths[r]]
    mode = (
        "eager"
        if eager_threshold is None
        else ("rendezvous" if eager_threshold <= 0 else f"eager<={eager_threshold}")
    )
    return InterpResult(
        mode=mode,
        pc=pc,
        stuck=stuck,
        matching=matching,
        eager_threshold=eager_threshold,
        nbytes=nbytes,
    )


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
    matching = result.matching
    for rank in result.stuck:
        step_idx = result.pc[rank]
        step = schedule.programs[rank].steps[step_idx]
        pending: List[Wait] = []
        for op_idx, op in enumerate(step.ops):
            ref = OpRef(rank, step_idx, op_idx)
            if isinstance(op, RecvOp):
                dep = matching.recv_to_send.get(ref)
                if dep is None or result.pc[dep.rank] < dep.step:
                    pending.append(Wait(ref, dep, "recv"))
            elif isinstance(op, SendOp):
                dep = matching.send_to_recv.get(ref)
                if _send_blocked(schedule, result, op, dep):
                    pending.append(Wait(ref, dep, "send"))
        out[rank] = pending
    return out


def _send_blocked(
    schedule: Schedule,
    result: InterpResult,
    op: SendOp,
    dep: Optional[OpRef],
) -> bool:
    # Mirror interpret()'s classification: eager sends never block;
    # rendezvous sends block while their matched recv is unposted or
    # missing.  Threshold mode re-sizes the payload the same way.
    if result.eager_threshold is None:
        return False
    if result.eager_threshold > 0:
        size = schedule.block_map(result.nbytes).bytes_of(op.blocks)
        if size <= result.eager_threshold:
            return False
    return dep is None or result.pc[dep.rank] < dep.step



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
