"""Lower a schedule into :class:`~repro.compile.program.CompiledSchedule`.

Lowering does not walk the IR.  A sealed
:class:`~repro.core.schedule.Schedule` already holds every op as flat
:class:`~repro.core.schedule.Columns` (its one construction walk), so
the tables are those columns cut per rank, plus what only the whole
schedule can say:

* **FIFO tags** — an op's running index on its directed ``(src, dst)``
  channel, from one stable sort of the channel ids per direction;
* **FIFO block mismatches** — the diagnoses the interpreter raises at
  runtime, precomputed: one comparison of every matched send/receive
  pair's block lists, which only a malformed (hand-built) schedule
  fails — and only then does the per-op census below run to name them.

The self-verification pass (:mod:`repro.compile.verify`) re-derives
every table from the IR *objects* with counters of its own — an
independent second derivation — and compares exactly: any disagreement
is a compiler bug (or a corrupted artifact) and raises
:class:`~repro.errors.CompileError` instead of executing wrong.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.schedule import Columns, RecvOp, Schedule, SendOp
from ..obs import Obs, get_obs
from .program import (
    OP_COPY,
    OP_SEND,
    CompiledProgram,
    CompiledSchedule,
    StagingPlan,
)

__all__ = ["compile_schedule"]

Mismatches = Dict[Tuple[int, int], Tuple[Tuple[int, ...], Tuple[int, ...]]]


def _running_index(chan: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, tags)``: the stable sort of ``chan`` and each entry's
    running index among the entries equal to it."""
    order = np.argsort(chan, kind="stable")
    ranked = chan[order]
    first = np.ones(len(chan), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(first)
    run = np.diff(np.append(starts, len(chan)))
    tags = np.empty(len(chan), dtype=np.int64)
    tags[order] = np.arange(len(chan)) - np.repeat(starts, run)
    return order, tags


def _gather_blocks(cols: Columns, ops: np.ndarray) -> np.ndarray:
    """The block ids of ``ops``, concatenated in that order."""
    lo = cols.seg_bounds[ops]
    n = cols.seg_bounds[ops + 1] - lo
    ends = np.cumsum(n)
    return cols.seg_blocks[np.repeat(lo - (ends - n), n) + np.arange(ends[-1])]


def _fifo_census(schedule: Schedule) -> Mismatches:
    """Receives whose FIFO-matched message carries other blocks, op by
    op (the slow path: only a malformed schedule gets here)."""
    chan_sends: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
    for prog in schedule.programs:
        for _, op in prog.iter_ops():
            if isinstance(op, SendOp):
                chan_sends.setdefault((prog.rank, op.peer), []).append(
                    op.blocks
                )
    recv_seq: Dict[Tuple[int, int], int] = {}
    mismatches: Mismatches = {}
    for prog in schedule.programs:
        rank = prog.rank
        for i, (_, op) in enumerate(prog.iter_ops()):
            if isinstance(op, RecvOp):
                chan = (op.peer, rank)
                seq = recv_seq.get(chan, 0)
                recv_seq[chan] = seq + 1
                sends = chan_sends.get(chan, ())
                if seq < len(sends) and sends[seq] != op.blocks:
                    mismatches[(rank, i)] = (sends[seq], op.blocks)
    return mismatches


def _lower(schedule: Schedule) -> CompiledSchedule:
    cols = schedule.columns()
    p = schedule.nranks
    kinds, op_ptr = cols.kinds, cols.op_ptr
    rank = np.repeat(np.arange(p, dtype=np.int64), np.diff(op_ptr))
    peers = cols.peers.astype(np.int64)
    is_send = kinds == OP_SEND
    send_at = np.flatnonzero(is_send)
    recv_at = np.flatnonzero(~is_send & (kinds != OP_COPY))
    send_chan = rank[send_at] * p + peers[send_at]
    recv_chan = peers[recv_at] * p + rank[recv_at]
    send_order, send_tags = _running_index(send_chan)
    recv_order, recv_tags = _running_index(recv_chan)
    tags = np.full(len(kinds), -1, dtype=np.int32)
    tags[send_at] = send_tags
    tags[recv_at] = recv_tags

    # Sorted by (channel, tag), message i of the sends is message i of
    # the receives exactly when every send has its receive; the pairs'
    # block lists then agree unless the schedule is malformed.
    sends, recvs = send_at[send_order], recv_at[recv_order]
    nblk = np.diff(cols.seg_bounds)
    matched = (
        np.array_equal(send_chan[send_order], recv_chan[recv_order])
        and np.array_equal(send_tags[send_order], recv_tags[recv_order])
        and np.array_equal(nblk[sends], nblk[recvs])
        and (
            not len(sends)
            or np.array_equal(
                _gather_blocks(cols, sends), _gather_blocks(cols, recvs)
            )
        )
    )

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
                kinds=kinds[lo:hi].copy(),
                peers=cols.peers[lo:hi].copy(),
                tags=tags[lo:hi].copy(),
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
        fifo_mismatches={} if matched else _fifo_census(schedule),
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
