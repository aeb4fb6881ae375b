"""Lower a schedule into :class:`~repro.compile.program.CompiledSchedule`.

Lowering walks nothing and copies nothing: a sealed
:class:`~repro.core.schedule.Schedule` already holds every op as flat
read-only :class:`~repro.core.schedule.Columns`, and the artifact is
those columns under the schedule's labels, with the schedule itself as
its runtime-only source (its FIFO matching and its
:meth:`~repro.core.schedule.Schedule.bind` memo are the schedule's).
It is not verified — that would compare the columns with themselves;
:mod:`repro.compile.verify` runs where an artifact arrives as bytes.
"""

from __future__ import annotations

from typing import Optional

from ..core.schedule import Schedule
from ..obs import Obs, get_obs
from .program import CompiledSchedule

__all__ = ["compile_schedule"]


def _lower(schedule: Schedule) -> CompiledSchedule:
    return CompiledSchedule(
        collective=schedule.collective,
        algorithm=schedule.algorithm,
        nranks=schedule.nranks,
        nblocks=schedule.nblocks,
        root=schedule.root,
        k=schedule.k,
        source_fingerprint=schedule.fingerprint(),
        columns=schedule.columns(),
        _source=schedule,
    )


def compile_schedule(
    schedule: Schedule,
    *,
    obs: Optional[Obs] = None,
) -> CompiledSchedule:
    """Lower ``schedule`` to flat tables: its own sealed columns.

    When observability is enabled the lowering runs inside a ``compile``
    span and bumps ``repro_compile_total`` / ``repro_compile_ops_total``
    (instrumentation changes no table — same transparency contract as
    every other subsystem).
    """
    o = get_obs(obs)
    if not o.enabled:
        return _lower(schedule)
    with o.span("compile", schedule=schedule.describe()):
        compiled = _lower(schedule)
    m = o.metrics
    m.counter("repro_compile_total").inc()
    m.counter("repro_compile_ops_total").inc(compiled.total_ops())
    return compiled
