"""Symbolic-dataflow lint: garbage reads and double-counted reductions.

This pass walks the contribution-set model of
:mod:`repro.core.validate` — every ``(rank, block)`` slot tracks which
ranks' original inputs are folded into it — and reports *every*
violation it recorded as a finding (where
:func:`~repro.core.validate.verify` raises on the first), so one run
reports every garbage send, every double-counted reduction, and every
postcondition miss in a broken schedule.

It must only run on schedules the deadlock/channel passes found
executable (the generic runner drives it, and an unmatched or
shape-mismatched message would abort the walk); the orchestrator in
:mod:`repro.check` enforces that ordering.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.runner import run_schedule
from ..core.schedule import RecvOp, Schedule, SendOp
from ..core.validate import _SymbolicModel, postcondition_errors
from .findings import Finding

__all__ = ["check_dataflow"]


def _annotate_steps(schedule: Schedule, findings: List[Finding]) -> None:
    # The runner's callbacks don't see step indices; recover them by
    # locating the named op in the rank's program (the first occurrence
    # — repeated identical ops are reported once, at their first site).
    for i, finding in enumerate(findings):
        if finding.rank is None or finding.step is not None or not finding.op:
            continue
        prog = schedule.programs[finding.rank]
        for step_idx, op in prog.iter_ops():
            if _render(op) == finding.op:
                findings[i] = Finding(
                    code=finding.code,
                    severity=finding.severity,
                    message=f"step {step_idx}: {finding.message}",
                    rank=finding.rank,
                    step=step_idx,
                    op=finding.op,
                )
                break


def _render(op) -> str:
    if isinstance(op, SendOp):
        return f"send{list(op.blocks)}->{op.peer}"
    if isinstance(op, RecvOp):
        kind = "recv+reduce" if op.reduce else "recv"
        return f"{kind}{list(op.blocks)}<-{op.peer}"
    return f"copy {op.src}->{op.dst}"


def check_dataflow(schedule: Schedule) -> List[Finding]:
    """Symbolically execute and lint the schedule's dataflow.

    Precondition: the deadlock/channel passes reported no errors (the
    walk reuses the reference runner, which aborts on those).
    """
    model = _SymbolicModel(schedule)
    run_schedule(schedule, model)
    findings = [
        Finding(code=code, severity="error", message=message, rank=rank,
                op=op)
        for code, rank, op, message in model.violations
    ]
    for text in postcondition_errors(schedule, model.state):
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
    _annotate_steps(schedule, findings)
    return findings
