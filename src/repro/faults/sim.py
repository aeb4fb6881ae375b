"""Static fault analysis for the discrete-event simulator.

Schedules are static and every :class:`~repro.faults.plan.FaultPlan`
decision is a pure function of (link, sequence number, attempt) — so
*which* messages survive, which ranks crash, and which ranks end up
blocked forever on a dead peer can all be computed before the simulation
runs.  :func:`analyze` does exactly that:

1. Messages whose every transmission attempt is dropped (``attempts_needed
   is None``) are *failed*.
2. A crashed rank posts no operations at or after its crash step.
3. Fixpoint: a message is *doomed* if it failed or either endpoint never
   posts its half; a rank that waits on a doomed message *stalls* at that
   step (it posts the step's operations, then blocks forever), so its
   later operations are unposted too — which can doom further messages.

The simulator then runs only the live part of the schedule: doomed
transfers are skipped, stalled/crashed ranks record infinite completion
times, and the engine drains cleanly — a *partial-completion result*
instead of the blanket deadlock ``MachineError`` the engine would
otherwise raise.

The messages are the schedule's one FIFO matching
(:meth:`~repro.core.schedule.Schedule.messages`), which
:func:`match_messages` reads into per-message metas; the simulator's
plan numbers its messages from the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.schedule import OP_REDUCE_RECV, Schedule
from ..errors import MachineError
from .plan import FaultPlan

__all__ = ["MsgMeta", "FaultStatics", "match_messages", "analyze"]


@dataclass(frozen=True)
class MsgMeta:
    """Where one matched message sits in the schedule."""

    index: int       # position in the simulator's message list
    src: int
    dst: int
    seq: int         # per-(src, dst)-link FIFO sequence number
    send_step: int   # step index of the send in src's program
    recv_step: int   # step index of the receive in dst's program
    blocks: Tuple[int, ...] = ()   # block ids the send carries
    reduce: bool = False           # whether the matched recv reduces


def match_messages(schedule: Schedule) -> List[MsgMeta]:
    """Every message of ``schedule`` as a :class:`MsgMeta`, statically.

    Read from the schedule's one FIFO matching
    (:meth:`~repro.core.schedule.Schedule.messages`) — the rule every
    executor implements — so the returned metas describe exactly the
    messages the simulator and the threaded transport will exchange.
    Raises :class:`~repro.errors.MachineError` on an unmatched send or
    receive.
    """
    cols, fifo = schedule.columns(), schedule.messages()
    lone = fifo.unmatched(cols)
    if lone is not None:
        raise MachineError(f"{schedule.describe()}: {lone}")
    step, _ = cols.positions()
    send, recv = fifo.send_op, fifo.recv_op
    return [
        MsgMeta(*meta)
        for meta in zip(
            range(len(send)),
            cols.ranks()[send].tolist(),
            cols.peers[send].tolist(),
            fifo.seq[send].tolist(),
            step[send].tolist(),
            step[recv].tolist(),
            cols.blocks_of(send),
            (cols.kinds[recv] == OP_REDUCE_RECV).tolist(),
        )
    ]


@dataclass(frozen=True)
class FaultStatics:
    """Everything the simulator needs to run a faulty schedule cleanly."""

    failed: FrozenSet[int]          # message indices with retries exhausted
    doomed: FrozenSet[int]          # failed or never fully posted
    post_limit: Dict[int, int]      # rank -> first step NOT posted
    stall_step: Dict[int, int]      # rank -> step it blocks at forever
    crashed: FrozenSet[int]         # ranks taken down by a Crash fault

    @property
    def dead_ranks(self) -> FrozenSet[int]:
        """Ranks that never complete (crashed or stalled)."""
        return self.crashed | frozenset(self.stall_step)

    def completes(self, rank: int, nsteps: int) -> bool:
        return (
            rank not in self.crashed
            and rank not in self.stall_step
            and self.post_limit.get(rank, nsteps) >= nsteps
        )


def analyze(
    schedule: Schedule, plan: FaultPlan, metas: Sequence[MsgMeta]
) -> Optional[FaultStatics]:
    """Pre-compute the fate of every message and rank under ``plan``.

    Returns ``None`` when the plan cannot change completion (no loss that
    exhausts retries and no crashes) — the simulator then only applies
    latency/bandwidth perturbations on the normal path.
    """
    p = schedule.nranks
    nsteps = schedule.columns().nsteps().tolist()

    failed = set()
    if plan.has_loss:
        for m in metas:
            if plan.attempts_needed(m.src, m.dst, m.seq) is None:
                failed.add(m.index)

    crashed = set()
    post_limit = dict(enumerate(nsteps))
    for r in range(p):
        c = plan.crash_step(r)
        if c is not None and c < nsteps[r]:
            crashed.add(r)
            post_limit[r] = c

    if not failed and not crashed:
        return None

    # waits[r][s]: messages rank r's step s waitall blocks on (its own
    # sends' completions and its receives' deliveries).
    waits: List[List[List[MsgMeta]]] = [
        [[] for _ in range(nsteps[r])] for r in range(p)
    ]
    for m in metas:
        waits[m.src][m.send_step].append(m)
        waits[m.dst][m.recv_step].append(m)

    stall_step: Dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        doomed = set(failed)
        for m in metas:
            if m.send_step >= post_limit[m.src] or m.recv_step >= post_limit[m.dst]:
                doomed.add(m.index)
        for r in range(p):
            for s in range(post_limit[r]):
                if any(m.index in doomed for m in waits[r][s]):
                    if post_limit[r] != s + 1 or stall_step.get(r) != s:
                        post_limit[r] = s + 1
                        stall_step[r] = s
                        crashed.discard(r)  # it blocks before it can crash
                        changed = True
                    break

    doomed = set(failed)
    for m in metas:
        if m.send_step >= post_limit[m.src] or m.recv_step >= post_limit[m.dst]:
            doomed.add(m.index)

    return FaultStatics(
        failed=frozenset(failed),
        doomed=frozenset(doomed),
        post_limit=post_limit,
        stall_step=stall_step,
        crashed=frozenset(crashed),
    )
