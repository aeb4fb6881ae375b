"""Symbolic verification of collective schedules.

Rather than moving bytes, the validator tracks, for every ``(rank, block)``
slot, the *contribution set*: which ranks' original inputs are folded into
the data currently held there.  This single abstraction covers every
collective the paper implements:

* For movement collectives (bcast, gather, scatter, allgather) a valid
  block always carries exactly its originating rank's singleton set, and
  the postcondition checks the right singleton landed in the right slot.
* For reduction collectives (reduce, allreduce, reduce_scatter) partial
  sums union their contribution sets; the postcondition requires the full
  set ``{0..p-1}``.  Unions must be *disjoint* — overlapping contributions
  would double-count inputs under non-idempotent operators such as SUM,
  which is precisely the class of corner-case bug the paper reports
  spending the most engineering effort on (§VI-A).

Because verification is symbolic it is fast enough to sweep thousands of
``(collective, algorithm, p, k, root)`` combinations in the property-based
test suite, catching structural bugs data tests at a handful of sizes would
miss.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError, ValidationError
from .schedule import (
    OP_COPY,
    OP_RECV,
    OP_REDUCE_RECV,
    OP_SEND,
    Columns,
    Messages,
    Schedule,
    step_levels,
    step_rounds,
)

__all__ = ["verify", "initial_state", "postcondition_errors", "ValidationReport"]

Content = Optional[FrozenSet[int]]


def initial_state(schedule: Schedule) -> List[List[Content]]:
    """The symbolic pre-state of each collective.

    Returns ``state[rank][block]`` where ``None`` means the slot holds
    garbage and ``frozenset(S)`` means it holds the combination of the
    original inputs of ranks in ``S``.
    """
    p, nb, root = schedule.nranks, schedule.nblocks, schedule.root
    coll = schedule.collective
    state: List[List[Content]] = [[None] * nb for _ in range(p)]
    if coll in ("bcast", "scatter"):
        if root is None:
            raise ValidationError(f"{coll} schedule must define a root")
        for b in range(nb):
            state[root][b] = frozenset({root})
    elif coll in ("gather", "allgather"):
        if nb != p:
            raise ValidationError(
                f"{coll} schedules must use nblocks == nranks, got {nb} != {p}"
            )
        for r in range(p):
            state[r][r] = frozenset({r})
    elif coll in ("reduce", "allreduce", "reduce_scatter", "barrier"):
        for r in range(p):
            for b in range(nb):
                state[r][b] = frozenset({r})
    elif coll == "alltoall":
        if nb != p * p:
            raise ValidationError(
                f"alltoall schedules must use nblocks == nranks², got "
                f"{nb} != {p * p}"
            )
        for r in range(p):
            for d in range(p):
                state[r][r * p + d] = frozenset({r})
    else:
        raise ValidationError(f"unknown collective {coll!r}")
    return state


def postcondition_errors(
    schedule: Schedule, state: List[List[Content]]
) -> List[str]:
    """Check the final symbolic state against the collective's contract."""
    p, nb, root = schedule.nranks, schedule.nblocks, schedule.root
    coll = schedule.collective
    full = frozenset(range(p))
    errors: List[str] = []

    def expect(rank: int, block: int, want: FrozenSet[int]) -> None:
        got = state[rank][block]
        if got != want:
            errors.append(
                f"rank {rank} block {block}: expected contributions "
                f"{sorted(want)}, got "
                f"{'garbage' if got is None else sorted(got)}"
            )

    if coll == "bcast":
        for r in range(p):
            for b in range(nb):
                expect(r, b, frozenset({root}))
    elif coll == "scatter":
        for r in range(p):
            expect(r, r if nb == p else 0, frozenset({root}))
    elif coll == "gather":
        for b in range(nb):
            expect(root, b, frozenset({b}))
    elif coll == "allgather":
        for r in range(p):
            for b in range(nb):
                expect(r, b, frozenset({b}))
    elif coll == "reduce":
        for b in range(nb):
            expect(root, b, full)
    elif coll in ("allreduce", "barrier"):
        # A barrier is an allreduce of membership: every rank must have
        # transitively heard from every other before it may exit.
        for r in range(p):
            for b in range(nb):
                expect(r, b, full)
    elif coll == "reduce_scatter":
        if nb != p:
            errors.append(f"reduce_scatter needs nblocks == nranks, got {nb}")
        else:
            for r in range(p):
                expect(r, r, full)
    elif coll == "alltoall":
        for d in range(p):
            for s_rank in range(p):
                expect(d, s_rank * p + d, frozenset({s_rank}))
    else:
        errors.append(f"unknown collective {coll!r}")
    return errors


#: One recorded dataflow violation: ``(code, rank, step, op text,
#: message)``.
Violation = Tuple[str, int, int, str, str]


def _op_text(kind: int, peer: int, blocks: Tuple[int, ...]) -> str:
    if kind == OP_SEND:
        return f"send{list(blocks)}->{peer}"
    if kind == OP_COPY:
        return f"copy {blocks[0]}->{blocks[1]}"
    reduce = "+reduce" if kind == OP_REDUCE_RECV else ""
    return f"recv{reduce}{list(blocks)}<-{peer}"


def _lockstep_order(
    cols: Columns, fifo: Messages, done: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(posted, completed)`` per step: when the lockstep executor
    (:func:`repro.compile.run_compiled_lockstep`) posts and completes
    it, as the tick ``pass * p + rank`` (−1: never).

    Each pass of that loop visits the unfinished ranks in order: a rank
    posts its current step on its first visit and completes it on the
    first visit by which every message it receives was sent, and posts
    its next step one pass later.  The walk's rounds ``done`` order the
    steps topologically, so one max-plus pass over them, round by round,
    evaluates the ticks.
    """
    p = len(cols.op_ptr) - 1
    nsteps = np.diff(cols.step_ptr) - 1
    step_rank = np.repeat(np.arange(p), nsteps)
    busy = np.flatnonzero(nsteps)
    heads = cols.step_ptr[busy] - busy
    posted = np.full(len(done), -1, dtype=np.int64)
    completed = np.full(len(done), -1, dtype=np.int64)
    posted[heads] = p + busy
    has_next = np.ones(len(done), dtype=bool)
    has_next[heads + nsteps[busy] - 1] = False
    gstep = cols.step_of()
    into, sent = gstep[fifo.recv_op], gstep[fifo.send_op]
    need = np.zeros(len(done), dtype=np.int64)
    for these, incoming in step_levels(done, into):
        np.maximum.at(need, into[incoming], posted[sent[incoming]] + 1)
        # The first visit of the step's rank at or after both its post
        # and its last message.
        n = need[these]
        completed[these] = np.maximum(
            posted[these], n + (step_rank[these] - n) % p
        )
        more = these[has_next[these]]
        posted[more + 1] = completed[more] + p
    return posted, completed


def _refuse_unexecutable(
    schedule: Schedule,
    cols: Columns,
    fifo: Messages,
    posted: np.ndarray,
    completed: np.ndarray,
) -> None:
    """Raise what keeps the lockstep order from running the whole
    schedule: a block mismatch, else a deadlock, else leftover sends."""
    p, kinds, peers = schedule.nranks, cols.kinds, cols.peers
    rank, gstep, (step, _) = cols.ranks(), cols.step_of(), cols.positions()
    if len(fifo.mismatched):
        # The first receive to consume a mismatched message (one in a
        # step that never completes comes last).
        recv = fifo.recv_op[fifo.mismatched]
        when = completed[gstep[recv]]
        m = fifo.mismatched[np.lexsort((recv, when < 0, when))[0]]
        s, r = int(fifo.send_op[m]), int(fifo.recv_op[m])
        got, want = cols.blocks_of(np.array([s, r]))
        raise ExecutionError(
            f"{schedule.describe()}: rank {rank[r]} step {step[r]} "
            f"expected blocks {want} from rank {peers[r]} but the "
            f"in-flight message carries {got}"
        )
    nsteps = np.diff(cols.step_ptr) - 1
    pc = np.bincount(
        np.repeat(np.arange(p), nsteps)[completed >= 0], minlength=p
    )
    if (pc < nsteps).any():
        # In flight on each channel: sends posted (their step entered)
        # minus receives consumed (their step completed).
        sends = kinds == OP_SEND
        recvs = ~sends & (kinds != OP_COPY)
        out = sends & (step <= pc[rank])
        taken = recvs & (step < pc[rank])
        have = Counter(zip(rank[out].tolist(), peers[out].tolist()))
        have.subtract(zip(peers[taken].tolist(), rank[taken].tolist()))
        lines = []
        for r in np.flatnonzero(pc < nsteps).tolist():
            at = np.flatnonzero((rank == r) & (step == pc[r]) & recvs)
            waits = [
                f"recv{list(b)}<-{q}(have {have[q, r]})"
                for q, b in zip(peers[at].tolist(), cols.blocks_of(at))
            ]
            lines.append(f"  rank {r} at step {pc[r]}: waiting on {waits}")
            if len(lines) >= 16:
                lines.append("  ... (truncated)")
                break
        raise ExecutionError(
            f"{schedule.describe()}: deadlock — no rank can make "
            f"progress.\n" + "\n".join(lines)
        )
    if len(fifo.unmatched_sends):
        # Channels in the order a send is first posted on them.
        sends = np.flatnonzero(kinds == OP_SEND)
        sends = sends[np.lexsort((sends, posted[gstep[sends]]))]
        lone = fifo.unmatched_sends
        left = Counter(zip(rank[lone].tolist(), peers[lone].tolist()))
        leftovers = {
            chan: left[chan]
            for chan in dict.fromkeys(
                zip(rank[sends].tolist(), peers[sends].tolist())
            )
            if chan in left
        }
        raise ExecutionError(
            f"{schedule.describe()}: {len(lone)} message(s) were sent but "
            f"never received: {leftovers}"
        )


def _contributions(
    schedule: Schedule,
) -> Tuple[List[List[Content]], List[Violation]]:
    """Every slot's final contribution set, and every violation met on
    the way, evaluated step by step in the schedule's step walk
    (:func:`~repro.core.schedule.step_rounds`), visited in the lockstep
    executor's order.

    A step posts when its rank enters it — sends snapshot the slots,
    then copies apply — and its receives apply in op order once it
    completes, after every message it consumes was snapshotted.  Each
    violation is recorded with the least-surprising recovery (garbage
    stays garbage, overlapping reductions union anyway), so one walk
    reaches the postcondition and sees every garbage send,
    reduce-into-garbage, double-count and garbage copy.  A schedule the
    walk cannot run to the end raises
    :class:`~repro.errors.ExecutionError` first.
    """
    state = initial_state(schedule)
    cols, fifo = schedule.columns(), schedule.messages()
    posted, completed = _lockstep_order(cols, fifo, step_rounds(cols, fifo))
    _refuse_unexecutable(schedule, cols, fifo, posted, completed)

    first, opens = cols.step_starts()
    lo = first[opens].tolist()  # step g holds ops lo[g]:hi[g]
    hi = first[np.flatnonzero(opens) + 1].tolist()
    rank, step = cols.ranks().tolist(), cols.positions()[0].tolist()
    kinds, peers = cols.kinds.tolist(), cols.peers.tolist()
    blocks = cols.blocks_of(np.arange(len(kinds)))
    source = np.full(len(kinds), -1, dtype=np.int64)
    source[fifo.recv_op] = fifo.send_op
    source = source.tolist()
    count_overlaps = not schedule.meta.get("idempotent_only")
    payloads: Dict[int, Tuple[Content, ...]] = {}
    violations: List[Violation] = []

    def report(code: str, i: int, message: str) -> None:
        violations.append((code, rank[i], step[i],
                           _op_text(kinds[i], peers[i], blocks[i]), message))

    def post(g: int) -> None:
        r = rank[lo[g]]
        slots = state[r]
        ops = range(lo[g], hi[g])
        for i in ops:
            if kinds[i] == OP_SEND:
                payloads[i] = tuple(slots[b] for b in blocks[i])
                for b in blocks[i]:
                    if slots[b] is None:
                        report(
                            "dataflow-garbage-send", i,
                            f"rank {r} sends uninitialized (garbage) "
                            f"block {b} to rank {peers[i]}",
                        )
        for i in ops:
            if kinds[i] == OP_COPY:
                src, dst = blocks[i]
                if slots[src] is None:
                    report(
                        "dataflow-garbage-copy", i,
                        f"rank {r} copies uninitialized (garbage) "
                        f"block {src} into block {dst}",
                    )
                slots[dst] = slots[src]

    def complete(g: int) -> None:
        r = rank[lo[g]]
        slots = state[r]
        for i in range(lo[g], hi[g]):
            if kinds[i] == OP_RECV:
                for b, content in zip(blocks[i], payloads[source[i]]):
                    slots[b] = content
            elif kinds[i] == OP_REDUCE_RECV:
                for b, content in zip(blocks[i], payloads[source[i]]):
                    local = slots[b]
                    if local is None:
                        report(
                            "dataflow-reduce-garbage", i,
                            f"rank {r} reduces an incoming message into "
                            f"uninitialized (garbage) block {b}",
                        )
                        slots[b] = content
                    elif content is not None:
                        # A garbage payload was reported at the sender.
                        overlap = local & content
                        if overlap and count_overlaps:
                            report(
                                "dataflow-double-count", i,
                                f"rank {r} block {b} double-counts "
                                f"contributions {sorted(overlap)} (local "
                                f"{sorted(local)} ∪ incoming "
                                f"{sorted(content)}) — corrupts "
                                f"non-idempotent reductions (SUM)",
                            )
                        slots[b] = local | content

    # Every step is posted and completed; a post and a completion at one
    # tick are one rank's visit, which posts first.
    ticks = np.concatenate([2 * posted, 2 * completed + 1])
    for event in np.argsort(ticks).tolist():
        if event < len(posted):
            post(event)
        else:
            complete(event - len(posted))
    return state, violations


@dataclass
class ValidationReport:
    """Result of a successful verification run."""

    schedule: str
    delivered_messages: int


def verify(schedule: Schedule) -> ValidationReport:
    """Symbolically execute ``schedule`` and check its postcondition.

    Raises :class:`~repro.errors.ValidationError` (semantic violation) or
    :class:`~repro.errors.ExecutionError` (the schedule cannot run) on
    failure; returns a :class:`ValidationReport` on success.  Of the
    execution errors a malformed schedule can have, a FIFO block
    mismatch is reported first, then a deadlock, then messages sent but
    never received — and any of them before a semantic violation.
    """
    state, violations = _contributions(schedule)
    if violations:
        raise ValidationError(f"{schedule.describe()}: {violations[0][4]}")
    errors = postcondition_errors(schedule, state)
    if errors:
        preview = "\n".join("  " + e for e in errors[:12])
        more = f"\n  ... and {len(errors) - 12} more" if len(errors) > 12 else ""
        raise ValidationError(
            f"{schedule.describe()}: postcondition failed:\n{preview}{more}"
        )
    return ValidationReport(
        schedule=schedule.describe(),
        delivered_messages=len(schedule.messages().send_op),
    )
