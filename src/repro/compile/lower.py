"""Lower a schedule into :class:`~repro.compile.program.CompiledSchedule`.

Lowering does not walk the IR.  A sealed
:class:`~repro.core.schedule.Schedule` already holds every op as flat
:class:`~repro.core.schedule.Columns` (its one construction walk) and
its FIFO matching as :meth:`~repro.core.schedule.Schedule.messages`, so
the tables are those columns cut per rank, plus what the matching says:

* **FIFO tags** — an op's running index on its directed ``(src, dst)``
  channel, the matching's ``seq`` column;
* **FIFO block mismatches** — the diagnoses the interpreter raises at
  runtime, precomputed from the matching's list of pairs whose block
  lists differ (only a malformed, hand-built schedule has any).

The artifact keeps the matching and the columns themselves as
runtime-only fields for the simulator plan and class analysis.  The
self-verification pass (:mod:`repro.compile.verify`) re-derives every
table from the IR *objects* with counters of its own — an independent
second derivation — and compares exactly: any disagreement is a
compiler bug (or a corrupted artifact) and raises
:class:`~repro.errors.CompileError` instead of executing wrong.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.schedule import Schedule
from ..obs import Obs, get_obs
from .program import CompiledProgram, CompiledSchedule, StagingPlan

__all__ = ["compile_schedule"]

Mismatches = Dict[Tuple[int, int], Tuple[Tuple[int, ...], Tuple[int, ...]]]


def _lower(schedule: Schedule) -> CompiledSchedule:
    cols, fifo = schedule.columns(), schedule.messages()
    p = schedule.nranks
    op_ptr = cols.op_ptr

    # Receive (rank, flat op index) -> (message blocks, receive blocks),
    # in receive order, keyed as the runners look them up.
    mismatches: Mismatches = {}
    if len(fifo.mismatched):
        bad = fifo.mismatched[np.argsort(fifo.recv_op[fifo.mismatched])]
        recv, send = fifo.recv_op[bad], fifo.send_op[bad]
        rank = cols.ranks()[recv]
        mismatches = dict(zip(
            zip(rank.tolist(), (recv - op_ptr[rank]).tolist()),
            zip(cols.blocks_of(send), cols.blocks_of(recv)),
        ))

    # Cut per rank, at plain-int offsets, into arrays the artifact owns.
    programs: List[CompiledProgram] = []
    seg_bounds = cols.seg_bounds.astype(np.int32)
    ops = op_ptr.tolist()
    segs = cols.seg_bounds[op_ptr].tolist()
    steps = cols.step_ptr.tolist()
    for r in range(p):
        lo, hi = ops[r], ops[r + 1]
        programs.append(
            CompiledProgram(
                rank=r,
                kinds=cols.kinds[lo:hi].copy(),
                peers=cols.peers[lo:hi].copy(),
                tags=fifo.seq[lo:hi].copy(),
                seg_bounds=seg_bounds[lo:hi + 1] - segs[r],
                seg_blocks=cols.seg_blocks[segs[r]:segs[r + 1]].copy(),
                steps_raw=cols.steps_raw[steps[r]:steps[r + 1]].copy(),
            )
        )
    return CompiledSchedule(
        collective=schedule.collective,
        algorithm=schedule.algorithm,
        nranks=p,
        nblocks=schedule.nblocks,
        root=schedule.root,
        k=schedule.k,
        source_fingerprint=schedule.fingerprint(),
        programs=tuple(programs),
        staging_plan=StagingPlan(signatures=tuple(sorted(cols.signatures))),
        fifo_mismatches=mismatches,
        _messages=fifo,
        _columns=cols,
    )


def compile_schedule(
    schedule: Schedule,
    *,
    verify: bool = True,
    obs: Optional[Obs] = None,
) -> CompiledSchedule:
    """Lower ``schedule`` to flat per-rank tables (verified by default).

    With ``verify=True`` the self-verification pass re-derives every
    table from the IR and compares exactly, raising
    :class:`~repro.errors.CompileError` on any disagreement — lowering
    bugs fail loudly at compile time, never as silently wrong data.

    When observability is enabled the lowering runs inside a ``compile``
    span and bumps ``repro_compile_total`` / ``repro_compile_ops_total``
    (instrumentation changes no table — same transparency contract as
    every other subsystem).
    """
    o = get_obs(obs)
    if o.enabled:
        with o.span("compile", schedule=schedule.describe()):
            compiled = _lower(schedule)
            if verify:
                compiled.verify(schedule)
        m = o.metrics
        m.counter("repro_compile_total").inc()
        m.counter("repro_compile_ops_total").inc(compiled.total_ops())
    else:
        compiled = _lower(schedule)
        if verify:
            compiled.verify(schedule)
    return compiled
