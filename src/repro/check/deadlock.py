"""Match-order deadlock detection over the static interpreter.

Three families of findings, all error severity:

``channel-*``
    Structural matching defects visible before any progress question:
    a recv with no send left to match (``channel-starved-recv``, a
    guaranteed hang), a send no recv ever consumes
    (``channel-orphan-send``, the executors' and ``verify``'s "sent but
    never received" leftover), and matched pairs whose block lists
    disagree (``channel-shape``), which the executors reject at delivery
    time.
``deadlock-eager``
    The program cannot finish even with unlimited send buffering — the
    same condition :func:`repro.core.validate.verify` and the executors
    report as a deadlock, found here without executing anything.
``deadlock-rendezvous``
    The program finishes eagerly but hangs once sends must wait for
    their matching recv to be posted — the classic "breaks above the
    eager limit" bug.  The diagnostic walks the wait-for cycle and
    names every (rank, step, op) edge on it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.schedule import Schedule
from .findings import Finding
from .interp import (
    InterpResult,
    Matching,
    OpRef,
    Wait,
    find_cycle,
    interpret,
    match_channels,
    op_at,
    op_name,
    waits_of,
)

__all__ = ["check_channels", "check_deadlock"]


def _op(schedule: Schedule, ref: OpRef) -> Tuple[int, List[int]]:
    """The peer and the block ids of the op ``ref`` names."""
    cols = schedule.columns()
    i = op_at(cols, ref)
    return int(cols.peers[i]), cols.blocks_of(np.array([i]))[0]


def _op_name(schedule: Schedule, ref: OpRef) -> str:
    return op_name(schedule.columns(), op_at(schedule.columns(), ref))


def check_channels(schedule: Schedule, matching: Matching) -> List[Finding]:
    """Audit the FIFO matching itself: starved recvs, orphan sends,
    and matched pairs whose block lists disagree (``matching.mismatched``)."""
    findings: List[Finding] = []
    for ref in matching.unmatched_recvs:
        peer, _ = _op(schedule, ref)
        findings.append(
            Finding(
                code="channel-starved-recv",
                severity="error",
                message=(
                    f"rank {ref.rank} step {ref.step} posts "
                    f"{_op_name(schedule, ref)} but rank {peer} sends "
                    f"fewer messages on this channel than are received — "
                    f"this wait can never be satisfied"
                ),
                rank=ref.rank,
                step=ref.step,
                op=_op_name(schedule, ref),
            )
        )
    for ref in matching.unmatched_sends:
        peer, _ = _op(schedule, ref)
        findings.append(
            Finding(
                code="channel-orphan-send",
                severity="error",
                message=(
                    f"rank {ref.rank} step {ref.step} posts "
                    f"{_op_name(schedule, ref)} but rank {peer} never "
                    f"receives it — the message would sit in the channel "
                    f"forever (runner reports it as a leftover)"
                ),
                rank=ref.rank,
                step=ref.step,
                op=_op_name(schedule, ref),
            )
        )
    for s_ref, r_ref in matching.mismatched:
        sent = list(_op(schedule, s_ref)[1])
        wanted = list(_op(schedule, r_ref)[1])
        if len(sent) != len(wanted):
            detail = (
                f"payload shapes differ: send carries "
                f"{len(sent)} block(s) {sent}, recv "
                f"expects {len(wanted)} block(s) {wanted}"
            )
        else:
            detail = (
                f"block ids differ: send carries {sent}, "
                f"recv expects {wanted}"
            )
        findings.append(
            Finding(
                code="channel-shape",
                severity="error",
                message=(
                    f"rank {s_ref.rank} step {s_ref.step} "
                    f"{_op_name(schedule, s_ref)} matches rank "
                    f"{r_ref.rank} step {r_ref.step} "
                    f"{_op_name(schedule, r_ref)} (FIFO order) but "
                    f"{detail}"
                ),
                rank=r_ref.rank,
                step=r_ref.step,
                op=_op_name(schedule, r_ref),
            )
        )
    return findings


def _describe_wait(schedule: Schedule, wait: Wait) -> str:
    waiter = wait.waiter
    head = (
        f"rank {waiter.rank} step {waiter.step} "
        f"{_op_name(schedule, waiter)}"
    )
    if wait.on is None:
        return f"{head} waits on a message that is never sent"
    on = wait.on
    what = "send" if wait.kind == "recv" else "matching recv"
    return (
        f"{head} waits for rank {on.rank} to post its {what} at "
        f"step {on.step} ({_op_name(schedule, on)})"
    )


def _deadlock_finding(
    schedule: Schedule, result: InterpResult, code: str
) -> Finding:
    cycle = find_cycle(schedule, result)
    if cycle:
        hops = " ; ".join(_describe_wait(schedule, w) for w in cycle)
        ranks = [w.waiter.rank for w in cycle]
        first = cycle[0].waiter
        return Finding(
            code=code,
            severity="error",
            message=(
                f"cyclic wait among ranks {ranks} under {result.mode} "
                f"send semantics: {hops} — closing the cycle"
            ),
            rank=first.rank,
            step=first.step,
            op=_op_name(schedule, first),
        )
    # No cycle means the stall chains to an unsatisfiable wait; report
    # the first stuck rank's pending dependency.
    all_waits = waits_of(schedule, result)
    rank = result.stuck[0]
    pending = all_waits.get(rank) or []
    detail = (
        _describe_wait(schedule, pending[0])
        if pending
        else f"rank {rank} is stuck at step {result.pc[rank]}"
    )
    first_ref = pending[0].waiter if pending else None
    return Finding(
        code=code,
        severity="error",
        message=(
            f"ranks {result.stuck} cannot finish under {result.mode} "
            f"send semantics: {detail}"
        ),
        rank=rank,
        step=result.pc[rank],
        op=_op_name(schedule, first_ref) if first_ref else None,
    )


def check_deadlock(
    schedule: Schedule,
    *,
    nbytes: int = 0,
    eager_threshold: Optional[int] = None,
) -> List[Finding]:
    """Walk the schedule under eager and rendezvous sends (plus the
    mixed-threshold regime when ``eager_threshold`` is given) and report
    any hang.

    The eager result subsumes the rendezvous one when it already
    deadlocks — a schedule stuck with unlimited buffering is stuck under
    every semantics, so only the strongest finding is emitted.
    """
    findings = check_channels(schedule, match_channels(schedule))

    eager = interpret(schedule)
    if eager.deadlocked:
        findings.append(_deadlock_finding(schedule, eager, "deadlock-eager"))
        return findings

    rendezvous = interpret(schedule, eager_threshold=0)
    if rendezvous.deadlocked:
        findings.append(
            _deadlock_finding(schedule, rendezvous, "deadlock-rendezvous")
        )
        if eager_threshold is not None and eager_threshold > 0:
            # Deadlock-freedom is monotone in the threshold (raising it
            # only removes waits), so a rendezvous-clean schedule needs
            # no mixed pass; a rendezvous-stuck one may still complete
            # in the user's regime — say which.
            mixed = interpret(
                schedule, eager_threshold=eager_threshold, nbytes=nbytes
            )
            if mixed.deadlocked:
                findings.append(
                    _deadlock_finding(schedule, mixed, "deadlock-threshold")
                )
            else:
                findings.append(
                    Finding(
                        code="deadlock-eager-dependent",
                        severity="warning",
                        message=(
                            f"completes at eager threshold "
                            f"{eager_threshold} B (nbytes={nbytes}) only "
                            f"because small payloads buffer eagerly; "
                            f"larger payloads will hang"
                        ),
                    )
                )
    return findings
