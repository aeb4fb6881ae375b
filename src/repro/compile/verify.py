"""Self-verification of compiled programs against their source IR.

The verification ladder (every rung raises
:class:`~repro.errors.CompileError` with diagnostics naming the rank,
step, and op involved — a corrupted artifact must be caught here, never
execute silently wrong):

1. **identity** — the artifact's parameters and recorded source
   fingerprint must match the schedule it claims to compile;
2. **structure** — table lengths agree, boundary arrays are monotone and
   cover the op/segment ranges, op codes are known, peers and block ids
   are in range;
3. **recompute** — every table row (op code, peer, FIFO tag, segment
   block ids) is re-derived from the IR and compared exactly;
4. **plan** — the staging plan's payload signatures match the IR's send
   set.

A fifth, out-of-band rung lives in :mod:`repro.compile.cache`: artifacts
loaded from disk re-run this whole ladder and quarantine on failure (the
``semantic`` rung of the store's integrity ladder).

The mutation corpus (``tests/test_compile_mutations.py``) holds this
pass to its promise with hand-broken tables: stale peers, off-by-one
block offsets, shifted step boundaries, wrong op codes, corrupted tags.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Sequence

from ..core.schedule import CopyOp, RecvOp, Schedule, SendOp
from ..errors import CompileError
from .program import (
    OP_COPY,
    OP_NAMES,
    OP_RECV,
    OP_REDUCE_RECV,
    OP_SEND,
    CompiledSchedule,
    StagingPlan,
)

__all__ = ["verify_compiled"]


def _step_of(bounds: Sequence[int], op_index: int) -> int:
    """Step index owning flat op ``op_index`` (for diagnostics)."""
    return max(0, bisect_right(bounds, op_index) - 1)


def _fail(rank: int, step: int, detail: str) -> None:
    raise CompileError(
        f"compiled program corrupt at rank {rank} step {step}: {detail}"
    )


def verify_compiled(compiled: CompiledSchedule, schedule: Schedule) -> None:
    """Check ``compiled`` is a faithful lowering of ``schedule``.

    Raises :class:`~repro.errors.CompileError` naming the offending rank
    and step on the first violation; returns ``None`` when every table
    matches the recomputed expectation exactly.
    """
    # Rung 1: identity.
    for field_name in ("collective", "algorithm", "nranks", "nblocks",
                       "root", "k"):
        got = getattr(compiled, field_name)
        want = getattr(schedule, field_name)
        if got != want:
            raise CompileError(
                f"compiled artifact {field_name}={got!r} does not match "
                f"schedule {field_name}={want!r}"
            )
    fingerprint = schedule.fingerprint()
    if compiled.source_fingerprint != fingerprint:
        raise CompileError(
            f"compiled artifact was lowered from a different schedule: "
            f"source fingerprint {compiled.source_fingerprint[:16]}… != "
            f"{fingerprint[:16]}…"
        )
    if len(compiled.programs) != schedule.nranks:
        raise CompileError(
            f"compiled artifact has {len(compiled.programs)} rank "
            f"program(s), schedule has {schedule.nranks}"
        )

    send_seq = {}
    recv_seq = {}
    signatures = set()
    for prog, src_prog in zip(compiled.programs, schedule.programs):
        rank = src_prog.rank
        flat_ops = [op for step in src_prog.steps for op in step.ops]
        nops = len(flat_ops)

        # Recompute the expected step boundaries first: structural
        # diagnostics below locate ops through them, so they must be
        # trustworthy even when the artifact's own tables are not.
        exp_raw = [0, *accumulate(len(step.ops) for step in src_prog.steps)]

        # Rung 2: structure.
        if prog.rank != rank:
            raise CompileError(
                f"compiled program {rank} is labeled rank {prog.rank}"
            )
        for name in ("kinds", "peers", "tags"):
            if len(getattr(prog, name)) != nops:
                _fail(rank, 0,
                      f"{name} table has {len(getattr(prog, name))} "
                      f"row(s) for {nops} op(s)")
        if len(prog.seg_bounds) != nops + 1:
            _fail(rank, 0,
                  f"segment bound table has {len(prog.seg_bounds)} "
                  f"entries for {nops} op(s)")
        seg_bounds = prog.seg_bounds.tolist()
        if seg_bounds and (seg_bounds[0] != 0
                           or seg_bounds[-1] != len(prog.seg_blocks)):
            _fail(rank, 0,
                  f"segment bounds span [{seg_bounds[0]}, {seg_bounds[-1]}]"
                  f" but the block table holds {len(prog.seg_blocks)} ids")
        if seg_bounds != sorted(seg_bounds):
            for i in range(nops):
                if seg_bounds[i] > seg_bounds[i + 1]:
                    _fail(rank, _step_of(exp_raw, i),
                          f"op {i}: segment bounds decrease "
                          f"({seg_bounds[i]} > {seg_bounds[i + 1]})")
        raw = prog.steps_raw.tolist()
        if raw != exp_raw:
            s = next(
                (i for i, (a, b) in enumerate(zip(raw, exp_raw)) if a != b),
                min(len(raw), len(exp_raw)) - 1,
            )
            _fail(rank, max(0, s - 1),
                  f"step boundary table {raw} does not match the "
                  f"schedule's step layout {exp_raw}")
        seg_blocks = prog.seg_blocks.tolist()
        if seg_blocks and not (
            0 <= min(seg_blocks) and max(seg_blocks) < schedule.nblocks
        ):
            idx, bad = next(
                (j, b) for j, b in enumerate(seg_blocks)
                if not 0 <= b < schedule.nblocks
            )
            op_i = max(0, bisect_right(seg_bounds, idx) - 1)
            _fail(rank, _step_of(exp_raw, op_i),
                  f"op {op_i}: block id {bad} out of range "
                  f"(nblocks={schedule.nblocks}) — offset table corrupt")

        # Rung 3: recompute each row from the IR.
        want_kinds, want_peers, want_tags = [], [], []
        want_blocks, want_bounds = [], [0]
        for op in flat_ops:
            if isinstance(op, SendOp):
                chan = (rank, op.peer)
                seq = send_seq.get(chan, 0)
                send_seq[chan] = seq + 1
                want_kinds.append(OP_SEND)
                want_peers.append(op.peer)
                want_tags.append(seq)
                want_blocks.extend(op.blocks)
                signatures.add(op.blocks)
            elif isinstance(op, RecvOp):
                chan = (op.peer, rank)
                seq = recv_seq.get(chan, 0)
                recv_seq[chan] = seq + 1
                want_kinds.append(OP_REDUCE_RECV if op.reduce else OP_RECV)
                want_peers.append(op.peer)
                want_tags.append(seq)
                want_blocks.extend(op.blocks)
            else:
                assert isinstance(op, CopyOp)
                want_kinds.append(OP_COPY)
                want_peers.append(-1)
                want_tags.append(-1)
                want_blocks.extend((op.src, op.dst))
            want_bounds.append(len(want_blocks))
        kinds = prog.kinds.tolist()
        peers = prog.peers.tolist()
        tags = prog.tags.tolist()
        if (kinds == want_kinds and peers == want_peers and tags == want_tags
                and seg_bounds == want_bounds and seg_blocks == want_blocks):
            continue
        # Some row differs: name the first, column by column.
        for i in range(nops):
            if kinds[i] != want_kinds[i]:
                _fail(rank, _step_of(exp_raw, i),
                      f"op {i}: wrong op code — table says "
                      f"{OP_NAMES.get(kinds[i], kinds[i])!r}, schedule "
                      f"has {OP_NAMES[want_kinds[i]]!r}")
            if peers[i] != want_peers[i]:
                _fail(rank, _step_of(exp_raw, i),
                      f"op {i}: stale peer table — compiled peer "
                      f"{peers[i]}, schedule says {want_peers[i]}")
            if tags[i] != want_tags[i]:
                _fail(rank, _step_of(exp_raw, i),
                      f"op {i}: FIFO tag {tags[i]} does not match the "
                      f"channel sequence number {want_tags[i]}")
            got_blocks = seg_blocks[seg_bounds[i]:seg_bounds[i + 1]]
            want = want_blocks[want_bounds[i]:want_bounds[i + 1]]
            if got_blocks != want:
                _fail(rank, _step_of(exp_raw, i),
                      f"op {i}: segment blocks {got_blocks} do not match "
                      f"the schedule's {want} (offset off-by-one?)")

    # Rung 4: staging plan.
    want_plan = StagingPlan(signatures=tuple(sorted(signatures)))
    if compiled.staging_plan != want_plan:
        raise CompileError(
            "staging plan does not cover the schedule's send payload "
            f"signatures ({compiled.staging_plan.describe()} vs expected "
            f"{want_plan.describe()})"
        )
