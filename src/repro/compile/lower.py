"""Lower a schedule into :class:`~repro.compile.program.CompiledSchedule`.

Two passes over the IR:

1. a channel census collecting, per directed ``(src, dst)`` pair, the
   FIFO sequence of send block tuples (needed to assign receive tags and
   to precompute the FIFO block-mismatch diagnoses the interpreter
   raises at runtime);
2. per rank, a flattening pass writing one table row per op in program
   order and recording the schedule's step boundaries.

The lowering is deterministic, so the self-verification pass
(:mod:`repro.compile.verify`) can re-derive every table from the IR and
compare exactly — any disagreement is a compiler bug (or a corrupted
artifact) and raises :class:`~repro.errors.CompileError` instead of
executing wrong.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.schedule import CopyOp, RecvOp, Schedule, SendOp
from ..obs import Obs, get_obs
from .program import (
    OP_COPY,
    OP_RECV,
    OP_REDUCE_RECV,
    OP_SEND,
    CompiledProgram,
    CompiledSchedule,
    StagingPlan,
)

__all__ = ["compile_schedule"]


def _lower(schedule: Schedule, source_fingerprint: str) -> CompiledSchedule:
    # Pass 1: per-channel FIFO census of send block tuples.
    chan_sends: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
    for prog in schedule.programs:
        for _, op in prog.iter_ops():
            if isinstance(op, SendOp):
                chan_sends.setdefault((prog.rank, op.peer), []).append(
                    op.blocks
                )

    # Pass 2: flatten every rank into tables.
    programs: List[CompiledProgram] = []
    send_seq: Dict[Tuple[int, int], int] = {}
    recv_seq: Dict[Tuple[int, int], int] = {}
    fifo_mismatches: Dict[
        Tuple[int, int], Tuple[Tuple[int, ...], Tuple[int, ...]]
    ] = {}
    signatures = set()
    for prog in schedule.programs:
        kinds: List[int] = []
        peers: List[int] = []
        tags: List[int] = []
        seg_bounds: List[int] = [0]
        seg_blocks: List[int] = []
        steps_raw: List[int] = [0]
        rank = prog.rank
        for step in prog.steps:
            for op in step.ops:
                if isinstance(op, SendOp):
                    chan = (rank, op.peer)
                    seq = send_seq.get(chan, 0)
                    send_seq[chan] = seq + 1
                    kinds.append(OP_SEND)
                    peers.append(op.peer)
                    tags.append(seq)
                    seg_blocks.extend(op.blocks)
                    signatures.add(op.blocks)
                elif isinstance(op, RecvOp):
                    chan = (op.peer, rank)
                    seq = recv_seq.get(chan, 0)
                    recv_seq[chan] = seq + 1
                    kinds.append(OP_REDUCE_RECV if op.reduce else OP_RECV)
                    peers.append(op.peer)
                    tags.append(seq)
                    seg_blocks.extend(op.blocks)
                    sends = chan_sends.get(chan, ())
                    if seq < len(sends) and sends[seq] != op.blocks:
                        fifo_mismatches[(rank, len(kinds) - 1)] = (
                            sends[seq],
                            op.blocks,
                        )
                else:
                    kinds.append(OP_COPY)
                    peers.append(-1)
                    tags.append(-1)
                    seg_blocks.extend((op.src, op.dst))
                seg_bounds.append(len(seg_blocks))
            steps_raw.append(len(kinds))
        programs.append(
            CompiledProgram(
                rank=rank,
                kinds=np.asarray(kinds, dtype=np.int8),
                peers=np.asarray(peers, dtype=np.int32),
                tags=np.asarray(tags, dtype=np.int32),
                seg_bounds=np.asarray(seg_bounds, dtype=np.int32),
                seg_blocks=np.asarray(seg_blocks, dtype=np.int32),
                steps_raw=np.asarray(steps_raw, dtype=np.int32),
            )
        )
    return CompiledSchedule(
        collective=schedule.collective,
        algorithm=schedule.algorithm,
        nranks=schedule.nranks,
        nblocks=schedule.nblocks,
        root=schedule.root,
        k=schedule.k,
        source_fingerprint=source_fingerprint,
        programs=tuple(programs),
        staging_plan=StagingPlan(signatures=tuple(sorted(signatures))),
        fifo_mismatches=fifo_mismatches,
    )


def compile_schedule(
    schedule: Schedule,
    *,
    verify: bool = True,
    obs: Optional[Obs] = None,
    source_fingerprint: Optional[str] = None,
) -> CompiledSchedule:
    """Lower ``schedule`` to flat per-rank tables (verified by default).

    ``source_fingerprint`` spares the IR walk when the caller has just
    computed ``schedule.fingerprint()`` (the compiled cache's key); the
    verification ladder's identity rung recomputes it regardless, so a
    wrong stamp cannot pass.

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
    if source_fingerprint is None:
        source_fingerprint = schedule.fingerprint()
    if o.enabled:
        with o.span("compile", schedule=schedule.describe()):
            compiled = _lower(schedule, source_fingerprint)
            if verify:
                compiled.verify(schedule)
        m = o.metrics
        m.counter("repro_compile_total").inc()
        m.counter("repro_compile_ops_total").inc(compiled.total_ops())
    else:
        compiled = _lower(schedule, source_fingerprint)
        if verify:
            compiled.verify(schedule)
    return compiled
