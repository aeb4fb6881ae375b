"""Symbolic-dataflow lint: garbage reads and double-counted reductions.

This pass evaluates the contribution-set model of
:mod:`repro.core.validate` — every ``(rank, block)`` slot tracks which
ranks' original inputs are folded into it — step by step in the
schedule's eager step walk, and reports *every* violation it recorded
as a finding at the step and op that made it (where
:func:`~repro.core.validate.verify` raises on the first), so one run
reports every garbage send, every double-counted reduction, and every
postcondition miss in a broken schedule.

It must only run on schedules the deadlock/channel passes found
executable (an unmatched or shape-mismatched message, or a deadlock,
raises :class:`~repro.errors.ExecutionError` before any contribution
set is evaluated); the orchestrator in :mod:`repro.check` enforces that
ordering.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.schedule import Schedule
from ..core.validate import _contributions, postcondition_errors
from .findings import Finding

__all__ = ["check_dataflow"]


def check_dataflow(schedule: Schedule) -> List[Finding]:
    """Symbolically execute and lint the schedule's dataflow.

    Precondition: the deadlock/channel passes reported no errors.
    """
    state, violations = _contributions(schedule)
    findings = [
        Finding(code=code, severity="error", message=f"step {step}: {message}",
                rank=rank, step=step, op=op)
        for code, rank, step, op, message in violations
    ]
    for text in postcondition_errors(schedule, state):
        rank: Optional[int] = None
        if text.startswith("rank "):
            try:
                rank = int(text.split()[1])
            except (IndexError, ValueError):
                rank = None
        findings.append(
            Finding(
                code="dataflow-postcondition",
                severity="error",
                message=(
                    f"{schedule.collective} postcondition failed: {text}"
                ),
                rank=rank,
            )
        )
    return findings
