"""Intra-step buffer-hazard detection.

All ops inside one step of a rank's program (:mod:`repro.core.schedule`)
post concurrently and complete together at the waitall; within that
window, two ops that touch the same block on the same rank can race on
a real transport.
The IR's reference semantics (sends snapshot at step start, copies
apply at step start, recvs apply at step end in op order) make many of
these overlaps well-defined *here* — the severity ladder encodes which
of them survive contact with a zero-copy MPI implementation:

error — two concurrent writers with no defined order on real hardware:
    * ``hazard-write-write`` — two plain (non-reduce) recvs, or a plain
      recv and a reduce recv, landing in the same block: last-writer
      wins nondeterministically.
    * ``hazard-copy-recv`` — a copy's destination is also written by a
      concurrent recv (the copy applies at step start in the IR, but a
      real memcpy races the incoming message).
    * ``hazard-copy-copy`` — two copies with the same destination.
warning — read-write pairs legal under snapshot semantics but racy
    under MPI's "don't touch the buffer until wait completes" rules:
    * ``hazard-read-write`` — a send reads a block a concurrent plain
      recv or copy overwrites.
    * ``hazard-copy-read`` — a copy reads a block a concurrent recv
      overwrites.
info — the canonical butterfly idiom, flagged so implementers know a
    staging buffer is required, never a failure:
    * ``hazard-send-reduce`` — a send reads a block a concurrent
      *reduce* recv combines into (recursive-multiplying/halving
      exchanges do this on every step).

Two reduce recvs into the same block produce **no** finding: the IR
applies them in op order, reduction order is deterministic, and the
k-nomial reduce idiom depends on it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.schedule import OP_COPY, OP_REDUCE_RECV, OP_SEND, Columns, Schedule
from .findings import Finding
from .interp import op_name

__all__ = ["check_hazards"]


def _classify(cols: Columns, lo: int, hi: int):
    """Per-block access sets for the step holding ops ``lo:hi``.

    Returns ``(writes, reads)`` where writes maps block -> list of
    (op, kind) with kind in {"recv", "reduce", "copy"} and reads maps
    block -> list of (op, kind) with kind in {"send", "copy"}; ops are
    global op indices, in op order.
    """
    writes: Dict[int, List[Tuple[int, str]]] = {}
    reads: Dict[int, List[Tuple[int, str]]] = {}
    kinds = cols.kinds[lo:hi].tolist()
    bounds = cols.seg_bounds[lo:hi + 1].tolist()
    ids = cols.seg_blocks[bounds[0]:bounds[-1]].tolist()
    for i, kind in enumerate(kinds):
        blocks = ids[bounds[i] - bounds[0]:bounds[i + 1] - bounds[0]]
        op = lo + i
        if kind == OP_SEND:
            for b in blocks:
                reads.setdefault(b, []).append((op, "send"))
        elif kind == OP_COPY:
            reads.setdefault(blocks[0], []).append((op, "copy"))
            writes.setdefault(blocks[1], []).append((op, "copy"))
        else:
            access = "reduce" if kind == OP_REDUCE_RECV else "recv"
            for b in blocks:
                writes.setdefault(b, []).append((op, access))
    return writes, reads


def _shared_steps(cols: Columns, nblocks: int) -> np.ndarray:
    """The steps (numbered as :meth:`Columns.step_of`) in which two
    accesses name one block — the only ones that can hold a hazard."""
    owner = np.repeat(np.arange(len(cols.kinds)), np.diff(cols.seg_bounds))
    key = cols.step_of()[owner] * nblocks + cols.seg_blocks
    found, count = np.unique(key, return_counts=True)
    return np.unique(found[count > 1] // nblocks)


def check_hazards(schedule: Schedule) -> List[Finding]:
    """Scan every rank's steps for concurrent same-block access pairs."""
    findings: List[Finding] = []
    cols = schedule.columns()
    busy = _shared_steps(cols, schedule.nblocks)
    if not len(busy):
        return findings
    first, opens = cols.step_starts()
    starts, lens = first[opens], cols.step_lens()
    rank, (local, _) = cols.ranks(), cols.positions()
    for g in busy.tolist():
        lo = int(starts[g])
        r, step_idx = int(rank[lo]), int(local[lo])
        writes, reads = _classify(cols, lo, lo + int(lens[g]))

        def emit(code, severity, block, a, b, detail):
            findings.append(
                Finding(
                    code=code,
                    severity=severity,
                    message=(
                        f"rank {r} step {step_idx} block "
                        f"{block}: {op_name(cols, a)} and "
                        f"{op_name(cols, b)} {detail}"
                    ),
                    rank=r,
                    step=step_idx,
                    op=op_name(cols, a),
                )
            )

        for block, writers in writes.items():
            # write/write pairs
            for i in range(len(writers)):
                for j in range(i + 1, len(writers)):
                    (op_a, kind_a), (op_b, kind_b) = writers[i], writers[j]
                    kinds = {kind_a, kind_b}
                    if kinds == {"reduce"}:
                        continue  # deterministic in-order reduction
                    if "copy" in kinds and kinds != {"copy"}:
                        emit(
                            "hazard-copy-recv", "error", block,
                            op_a, op_b,
                            "both write it concurrently (local copy "
                            "races the incoming message)",
                        )
                    elif kinds == {"copy"}:
                        emit(
                            "hazard-copy-copy", "error", block,
                            op_a, op_b,
                            "are two concurrent copies into the same "
                            "destination",
                        )
                    else:
                        emit(
                            "hazard-write-write", "error", block,
                            op_a, op_b,
                            "both write it concurrently — last writer "
                            "wins nondeterministically",
                        )
            # read/write pairs
            for op_r, kind_r in reads.get(block, ()):
                for op_w, kind_w in writers:
                    if op_r == op_w:
                        continue
                    if kind_r == "send" and kind_w == "reduce":
                        emit(
                            "hazard-send-reduce", "info", block,
                            op_r, op_w,
                            "overlap (butterfly exchange idiom: a "
                            "zero-copy implementation needs a staging "
                            "buffer for the incoming reduction)",
                        )
                    elif kind_r == "send":
                        emit(
                            "hazard-read-write", "warning", block,
                            op_r, op_w,
                            "overlap: the send reads a block the "
                            "concurrent write overwrites (safe only "
                            "under snapshot-at-post semantics)",
                        )
                    else:  # copy reads a block something overwrites
                        emit(
                            "hazard-copy-read", "warning", block,
                            op_r, op_w,
                            "overlap: the copy reads a block the "
                            "concurrent write overwrites",
                        )
    return findings
