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

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..errors import ValidationError
from .runner import RunResult, run_schedule
from .schedule import CopyOp, RecvOp, Schedule, SendOp

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


#: One recorded dataflow violation: ``(code, rank, op text, message)``.
Violation = Tuple[str, int, str, str]


class _SymbolicModel:
    """Contribution-set data model plugged into the generic runner.

    Records every violation in :attr:`violations` and keeps walking with
    the least-surprising recovery (garbage stays garbage, overlapping
    reductions union anyway), so one walk reaches the postcondition check
    and reports every garbage send, reduce-into-garbage, double-count and
    garbage copy.  :func:`verify` raises on the first record;
    :func:`repro.check.dataflow.check_dataflow` wraps all of them as
    findings.
    """

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        self.state = initial_state(schedule)
        self.violations: List[Violation] = []

    def snapshot(self, rank: int, op: SendOp) -> Tuple[Content, ...]:
        payload = tuple(self.state[rank][b] for b in op.blocks)
        for b, content in zip(op.blocks, payload):
            if content is None:
                self.violations.append((
                    "dataflow-garbage-send",
                    rank,
                    f"send{list(op.blocks)}->{op.peer}",
                    f"rank {rank} sends uninitialized (garbage) "
                    f"block {b} to rank {op.peer}",
                ))
        return payload

    def apply_recv(
        self, rank: int, op: RecvOp, payload: Tuple[Content, ...]
    ) -> None:
        for b, content in zip(op.blocks, payload):
            if not op.reduce:
                self.state[rank][b] = content
                continue
            local = self.state[rank][b]
            if local is None:
                self.violations.append((
                    "dataflow-reduce-garbage",
                    rank,
                    f"recv+reduce{list(op.blocks)}<-{op.peer}",
                    f"rank {rank} reduces an incoming message "
                    f"into uninitialized (garbage) block {b}",
                ))
                self.state[rank][b] = content
                continue
            if content is None:
                # Garbage payload was already reported at the sender.
                continue
            overlap = local & content
            if overlap and not self.schedule.meta.get("idempotent_only"):
                self.violations.append((
                    "dataflow-double-count",
                    rank,
                    f"recv+reduce{list(op.blocks)}<-{op.peer}",
                    f"rank {rank} block {b} double-counts "
                    f"contributions {sorted(overlap)} (local "
                    f"{sorted(local)} ∪ incoming {sorted(content)}) "
                    f"— corrupts non-idempotent reductions (SUM)",
                ))
            self.state[rank][b] = local | content

    def apply_copy(self, rank: int, op: CopyOp) -> None:
        src = self.state[rank][op.src]
        if src is None:
            self.violations.append((
                "dataflow-garbage-copy",
                rank,
                f"copy {op.src}->{op.dst}",
                f"rank {rank} copies uninitialized (garbage) "
                f"block {op.src} into block {op.dst}",
            ))
        self.state[rank][op.dst] = src


@dataclass
class ValidationReport:
    """Result of a successful verification run."""

    schedule: str
    delivered_messages: int
    progress_passes: int


def verify(schedule: Schedule) -> ValidationReport:
    """Symbolically execute ``schedule`` and check its postcondition.

    Raises :class:`~repro.errors.ValidationError` (semantic violation) or
    :class:`~repro.errors.ExecutionError` (deadlock / unmatched messages)
    on failure; returns a :class:`ValidationReport` on success.
    """
    model = _SymbolicModel(schedule)
    result: RunResult = run_schedule(schedule, model)
    if model.violations:
        raise ValidationError(
            f"{schedule.describe()}: {model.violations[0][3]}"
        )
    errors = postcondition_errors(schedule, model.state)
    if errors:
        preview = "\n".join("  " + e for e in errors[:12])
        more = f"\n  ... and {len(errors) - 12} more" if len(errors) > 12 else ""
        raise ValidationError(
            f"{schedule.describe()}: postcondition failed:\n{preview}{more}"
        )
    return ValidationReport(
        schedule=schedule.describe(),
        delivered_messages=result.delivered_messages,
        progress_passes=result.progress_passes,
    )
