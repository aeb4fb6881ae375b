"""The k-ring, Bruck/dissemination, all-to-all, chain and linear
families' columns against their op-object reference.

No builder makes an op object: ``kring_allgather`` is index arithmetic
over (epoch, round, position); ``bruck_allgather`` and
``dissemination_barrier`` are one partner expansion; the all-to-alls
place every block by its displacement's digits; ``chain_bcast`` and the
four ``linear_*`` builders are one message per link, sorted into
program order.  The per-rank bodies they replaced are kept below
verbatim as the oracle (like ``tests/test_knomial_tree.py`` keeps the
k-nomial loops), and so are the op-object bodies of ``render_rounds``,
``render_kring_rounds`` and ``schedule_to_json``, which now read the
columns.  Columns, payload signatures, ``fingerprint()``, ``meta``,
refusal texts and rendered bytes must be equal over a rank × radix ×
root grid, and every registry entry that builds through the families
over ranks × radices × roots — and no registry build may make an op
object.
"""

import dataclasses
import json
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

import repro.core.alltoall
import repro.core.baselines
import repro.core.bruck
import repro.core.pipeline
import repro.core.registry as registry
import repro.core.ring
from repro.core.alltoall import alltoall_block
from repro.core.bruck import bruck_window
from repro.core.cache import ContentCache
from repro.core.hierarchical import hierarchical_allreduce
from repro.core.primitives import (
    check_radix,
    check_root,
    ilog,
    sharing_phases,
)
from repro.core.render import render_kring_rounds, render_rounds
from repro.core.ring import kring_allgather, kring_groups
from repro.core.schedule import Schedule
from repro.core.serialize import (
    _FORMAT_VERSION,
    _jsonable_meta,
    schedule_to_json,
)
from repro.errors import ScheduleError
from oracle import (
    CopyOp,
    Op,
    RankProgram,
    RecvOp,
    SendOp,
    Step,
    absolute_rank,
    all_blocks,
    empty_programs,
    from_programs,
    programs_of,
    relative_rank,
)
from test_column_transforms import assert_same
from test_knomial_tree import assert_same_columns

# ----------------------------------------------------------------------
# The reference: the op-object bodies replaced
# ----------------------------------------------------------------------


def _chunk(blocks: Sequence[int], parts: int) -> List[Tuple[int, ...]]:
    """Split a sorted block set into ``parts`` contiguous chunks, first
    chunks one longer when sizes don't divide (may yield empty chunks)."""
    base, extra = divmod(len(blocks), parts)
    out: List[Tuple[int, ...]] = []
    pos = 0
    for i in range(parts):
        size = base + 1 if i < extra else base
        out.append(tuple(blocks[pos : pos + size]))
        pos += size
    return out


def reference_kring_allgather(p: int, k: int) -> Schedule:
    """K-ring allgather (paper Fig. 6; cost model (11)/(12)).

    Per rank, the program is ``g`` intra-group ring epochs of
    ``(group size - 1)`` rounds each, interleaved with ``g - 1``
    inter-group rounds.  An intra epoch circulates the block set delivered
    by the previous inter round; an inter round forwards the set the group
    just completed to the next group, chunked per receiving member.
    """
    groups = kring_groups(p, k)
    g = len(groups)
    programs = empty_programs(p)

    # portions[j][i] = the block chunk member i of group j circulates in
    # the current intra epoch.  Epoch 0 seeds each member with its own block.
    portions: List[List[Tuple[int, ...]]] = [
        [(rank,) for rank in grp] for grp in groups
    ]

    def intra_epoch() -> None:
        """Circulate each group's member portions around its intra ring."""
        for j, grp in enumerate(groups):
            s = len(grp)
            if s == 1:
                continue
            for t in range(1, s):
                for i, rank in enumerate(grp):
                    ops: List[Op] = []
                    outgoing = portions[j][(i - t + 1) % s]
                    incoming = portions[j][(i - t) % s]
                    if outgoing:
                        ops.append(SendOp(peer=grp[(i + 1) % s], blocks=outgoing))
                    if incoming:
                        ops.append(RecvOp(peer=grp[(i - 1) % s], blocks=incoming))
                    programs[rank].add_step(ops)

    # Epoch 0: every group circulates its own blocks.
    intra_epoch()

    for e in range(1, g):
        # Inter round e: group j forwards the set it completed in epoch
        # e-1 (the blocks of group j-(e-1)) to group j+1.
        new_portions: List[List[Tuple[int, ...]]] = []
        inter_ops: List[List[Op]] = [[] for _ in range(p)]
        for j, grp in enumerate(groups):
            src_group = groups[(j - e) % g]  # what group j will receive now
            nxt = groups[(j + 1) % g]
            s = len(grp)
            # Outgoing: the set completed last epoch, chunked for `nxt`.
            completed = sorted(b for member in portions[j] for b in member)
            out_chunks = _chunk(completed, len(nxt))
            for i_dst, chunk in enumerate(out_chunks):
                if chunk:
                    sender = grp[i_dst % s]
                    inter_ops[sender].append(
                        SendOp(peer=nxt[i_dst], blocks=chunk)
                    )
            # Incoming: group j-1's completed set (blocks of group j-e),
            # chunked for us.
            prv = groups[(j - 1) % g]
            in_chunks = _chunk(sorted(r for r in src_group), s)
            member_portions: List[Tuple[int, ...]] = []
            for i, rank in enumerate(grp):
                chunk = in_chunks[i]
                if chunk:
                    sender = prv[i % len(prv)]
                    inter_ops[rank].append(
                        RecvOp(peer=sender, blocks=chunk)
                    )
                member_portions.append(chunk)
            new_portions.append(member_portions)
        for rank in range(p):
            programs[rank].add_step(inter_ops[rank])
        portions = new_portions
        # Epoch e: circulate the freshly received chunks within each group.
        intra_epoch()

    return from_programs(
        collective="allgather",
        algorithm="kring" if 1 < k < p else "ring",
        nranks=p,
        nblocks=p,
        programs=programs,
        k=k,
        meta={"groups": [len(grp) for grp in groups]},
    )


def reference_bruck_allgather(p: int, k: int = 2) -> Schedule:
    """K-port Bruck allgather: ``⌈log_k p⌉`` rounds for *any* ``p``.

    Round ``i`` (stride ``k^i``): every rank sends, to each of up to
    ``k-1`` partners at distances ``j·k^i`` *behind* it, the prefix of its
    current window the partner is missing; windows multiply by ``k`` per
    round, truncated at ``p``.  Cost model: ``⌈log_k p⌉·α + β·n·(p-1)/p``
    — the same telescoped bandwidth as recursive multiplying, but with no
    remainder fold.
    """
    check_radix(k)
    if p < 1:
        raise ScheduleError(f"p must be >= 1, got {p}")
    programs = empty_programs(p)
    stride = 1
    while stride < p:
        target = min(stride * k, p)
        for rank in range(p):
            ops: List[Op] = []
            # Sends: partner j·stride behind me takes my window prefix.
            for j in range(1, k):
                dist = j * stride
                if dist >= target:
                    break
                take = min(stride, target - dist)
                peer = (rank - dist) % p
                if peer == rank:
                    continue  # wrapped all the way: nothing to exchange
                ops.append(
                    SendOp(peer=peer, blocks=bruck_window(rank, take, p))
                )
            # Receives: partner j·stride ahead extends my window.
            for j in range(1, k):
                dist = j * stride
                if dist >= target:
                    break
                take = min(stride, target - dist)
                peer = (rank + dist) % p
                if peer == rank:
                    continue
                ops.append(
                    RecvOp(peer=peer, blocks=bruck_window(peer, take, p))
                )
            programs[rank].add_step(ops)
        stride = target
    return from_programs(
        collective="allgather",
        algorithm="bruck" if k == 2 else "bruck_kport",
        nranks=p,
        nblocks=p,
        programs=programs,
        k=k,
        meta={"rounds": ilog(k, p)},
    )


def reference_dissemination_barrier(p: int, k: int = 2) -> Schedule:
    """N-way dissemination barrier (Hoefler et al. [19]).

    Round ``i``: every rank signals the ``k-1`` ranks ``j·k^i`` *ahead* of
    it.  After ``⌈log_k p⌉`` rounds every rank has transitively heard from
    every other, so all ranks must have entered the barrier.  Messages are
    zero-byte tokens; the schedule's single block tracks the "heard-from"
    set symbolically, and the final truncated round legitimately delivers
    overlapping sets — hence the ``idempotent_only`` marker.
    """
    check_radix(k)
    if p < 1:
        raise ScheduleError(f"p must be >= 1, got {p}")
    programs = empty_programs(p)
    stride = 1
    while stride < p:
        reach = min(stride * k, p)
        for rank in range(p):
            ops: List[Op] = []
            for j in range(1, k):
                dist = j * stride
                if dist >= reach:
                    break
                peer = (rank + dist) % p
                if peer != rank:
                    ops.append(SendOp(peer=peer, blocks=(0,)))
            for j in range(1, k):
                dist = j * stride
                if dist >= reach:
                    break
                peer = (rank - dist) % p
                if peer != rank:
                    ops.append(RecvOp(peer=peer, blocks=(0,), reduce=True))
            programs[rank].add_step(ops)
        stride = reach
    return from_programs(
        collective="barrier",
        algorithm="dissemination" if k == 2 else "k_dissemination",
        nranks=p,
        nblocks=1,
        programs=programs,
        k=k,
        meta={"rounds": ilog(k, p), "idempotent_only": True},
    )


def reference_pairwise_alltoall(p: int) -> Schedule:
    """Pairwise-exchange all-to-all: ``p - 1`` rounds, every block moves
    exactly once (cost ``(p-1)·(α + β·n/p²)`` per eq.-(8)-style counting)."""
    if p < 1:
        raise ScheduleError(f"p must be >= 1, got {p}")
    programs = empty_programs(p)
    for t in range(1, p):
        for rank in range(p):
            to = (rank + t) % p
            frm = (rank - t) % p
            programs[rank].add(
                SendOp(peer=to, blocks=(alltoall_block(rank, to, p),)),
                RecvOp(peer=frm, blocks=(alltoall_block(frm, rank, p),)),
            )
    return from_programs(
        collective="alltoall",
        algorithm="pairwise",
        nranks=p,
        nblocks=p * p,
        programs=programs,
        meta={"rounds": max(p - 1, 0)},
    )


def _digits(value: int, k: int, rounds: int) -> List[int]:
    """Base-k digits of ``value``, least significant first, padded."""
    out = []
    for _ in range(rounds):
        out.append(value % k)
        value //= k
    return out


def reference_bruck_alltoall(p: int, k: int = 2) -> Schedule:
    """K-port Bruck all-to-all: ``⌈log_k p⌉`` rounds of digit routing.

    Round ``i``: every rank forwards, to each partner ``j·k^i`` ahead of
    it (``j = 1..k-1``), all blocks it currently holds whose remaining
    displacement ``(dst - here) mod p`` has base-k digit ``i`` equal to
    ``j``.  Messages aggregate many blocks, so small per-pair payloads
    amortize latency — the small-message regime where [12]'s generalized
    Bruck wins, reproduced by ``bench_alltoall_crossover.py``.
    """
    check_radix(k)
    if p < 1:
        raise ScheduleError(f"p must be >= 1, got {p}")
    programs = empty_programs(p)
    rounds = ilog(k, p)
    # held[r] = blocks currently at rank r (as (src, dst) pairs).
    held: List[List[Tuple[int, int]]] = [
        [(r, d) for d in range(p)] for r in range(p)
    ]
    for i in range(rounds):
        stride = k**i
        outgoing: Dict[int, Dict[int, List[Tuple[int, int]]]] = {
            r: {} for r in range(p)
        }
        for r in range(p):
            keep = []
            for (s, d) in held[r]:
                digit = _digits((d - r) % p, k, rounds)[i]
                if digit == 0:
                    keep.append((s, d))
                else:
                    outgoing[r].setdefault(digit, []).append((s, d))
            held[r] = keep
        for r in range(p):
            ops: List[Op] = []
            for j in sorted(outgoing[r]):
                peer = (r + j * stride) % p
                blocks = tuple(
                    sorted(alltoall_block(s, d, p) for s, d in outgoing[r][j])
                )
                if peer == r:
                    # wrapped all the way around: the blocks stay local
                    held[r].extend(outgoing[r][j])
                    continue
                ops.append(SendOp(peer=peer, blocks=blocks))
            for j in sorted(
                jj for jj in range(1, k)
                if outgoing[(r - jj * stride) % p].get(jj)
                and (r - jj * stride) % p != r
            ):
                src_rank = (r - j * stride) % p
                incoming = outgoing[src_rank][j]
                blocks = tuple(
                    sorted(alltoall_block(s, d, p) for s, d in incoming)
                )
                ops.append(RecvOp(peer=src_rank, blocks=blocks))
                held[r].extend(incoming)
            programs[r].add_step(ops)
    for r in range(p):
        expect = sorted((s, r) for s in range(p))
        if sorted(held[r]) != expect:
            raise ScheduleError(
                f"internal error: rank {r} ends holding {sorted(held[r])[:4]}..."
            )
    return from_programs(
        collective="alltoall",
        algorithm="bruck" if k == 2 else "bruck_kport",
        nranks=p,
        nblocks=p * p,
        programs=programs,
        k=k,
        meta={"rounds": rounds},
    )


def reference_chain_bcast(p: int, segments: int, *, root: int = 0) -> Schedule:
    """Segmented chain broadcast.

    The ranks form a line (in relative order from the root); each segment
    flows down the chain one hop per step, with every rank forwarding
    segment ``s`` while receiving segment ``s + 1`` — steady-state
    bandwidth on every link simultaneously.

    ``segments`` plays the role the radix plays for the paper's kernels:
    more segments hide the chain's ``p - 2`` forwarding latencies behind
    smaller per-hop transfers, at the cost of ``S`` extra message
    latencies.
    """
    check_root(root, p)
    if segments < 1:
        raise ScheduleError(f"segments must be >= 1, got {segments}")
    programs = empty_programs(p)
    for rank in range(p):
        relr = relative_rank(rank, root, p)
        prev = absolute_rank(relr - 1, root, p) if relr > 0 else None
        nxt = absolute_rank(relr + 1, root, p) if relr < p - 1 else None
        prog = programs[rank]
        if prev is None:
            # Root: stream every segment downstream back to back.
            for s in range(segments):
                if nxt is not None:
                    prog.add(SendOp(peer=nxt, blocks=(s,)))
            continue
        # Interior/tail ranks double-buffer: while forwarding segment s,
        # the receive for segment s+1 is already posted — the overlap that
        # gives the pipeline its (S + p - 2)-step steady state.
        prog.add(RecvOp(peer=prev, blocks=(0,)))
        for s in range(segments):
            ops = []
            if nxt is not None:
                ops.append(SendOp(peer=nxt, blocks=(s,)))
            if s + 1 < segments:
                ops.append(RecvOp(peer=prev, blocks=(s + 1,)))
            prog.add_step(ops)
    return from_programs(
        collective="bcast",
        algorithm="chain" if segments == 1 else "pipelined_chain",
        nranks=p,
        nblocks=segments,
        programs=programs,
        root=root,
        k=segments,
        meta={"segments": segments},
    )


def reference_linear_bcast(p: int, *, root: int = 0) -> Schedule:
    """Naïve broadcast: the root sends to every rank sequentially.

    Cost ``(p-1)(α + βn)`` — the paper's §III-B motivating example of what
    tree algorithms beat.  Sequential (one step per destination), so the
    simulator charges full serialization.
    """
    check_root(root, p)
    programs = empty_programs(p)
    payload = all_blocks(1)
    for relr in range(1, p):
        dst = absolute_rank(relr, root, p)
        programs[root].add(SendOp(peer=dst, blocks=payload))
        programs[dst].add(RecvOp(peer=root, blocks=payload))
    return from_programs(
        collective="bcast",
        algorithm="linear",
        nranks=p,
        nblocks=1,
        programs=programs,
        root=root,
    )


def reference_linear_reduce(p: int, *, root: int = 0) -> Schedule:
    """Naïve reduction: the root receives and folds every contribution
    sequentially (``(p-1)(α + (β+γ)n)``)."""
    check_root(root, p)
    programs = empty_programs(p)
    payload = all_blocks(1)
    for relr in range(1, p):
        src = absolute_rank(relr, root, p)
        programs[root].add(RecvOp(peer=src, blocks=payload, reduce=True))
        programs[src].add(SendOp(peer=root, blocks=payload))
    return from_programs(
        collective="reduce",
        algorithm="linear",
        nranks=p,
        nblocks=1,
        programs=programs,
        root=root,
    )


def reference_linear_gather(p: int, *, root: int = 0) -> Schedule:
    """Naïve gather: the root receives each rank's block sequentially."""
    check_root(root, p)
    programs = empty_programs(p)
    for relr in range(1, p):
        src = absolute_rank(relr, root, p)
        programs[root].add(RecvOp(peer=src, blocks=(src,)))
        programs[src].add(SendOp(peer=root, blocks=(src,)))
    return from_programs(
        collective="gather",
        algorithm="linear",
        nranks=p,
        nblocks=p,
        programs=programs,
        root=root,
    )


def reference_linear_scatter(p: int, *, root: int = 0) -> Schedule:
    """Naïve scatter: the root sends each rank its block sequentially."""
    check_root(root, p)
    programs = empty_programs(p)
    for relr in range(1, p):
        dst = absolute_rank(relr, root, p)
        programs[root].add(SendOp(peer=dst, blocks=(dst,)))
        programs[dst].add(RecvOp(peer=root, blocks=(dst,)))
    return from_programs(
        collective="scatter",
        algorithm="linear",
        nranks=p,
        nblocks=p,
        programs=programs,
        root=root,
    )


def reference_render_rounds(schedule: Schedule, *, max_rounds: Optional[int] = None) -> str:
    """Render a rank-symmetric schedule round by round (Figs. 3–6 style).

    Each line lists one logical round's messages as ``src→dst[blocks]``.
    Only meaningful for schedules whose ranks advance in lockstep (the
    butterfly/ring/dissemination families); tree schedules should use
    :func:`render_knomial_tree`.
    """
    programs = programs_of(schedule)
    nsteps = max(len(prog.steps) for prog in programs) if programs else 0
    if max_rounds is not None:
        nsteps = min(nsteps, max_rounds)
    lines = [schedule.describe()]
    for step in range(nsteps):
        parts = []
        for prog in programs:
            if step >= len(prog.steps):
                continue
            for op in prog.steps[step].ops:
                if isinstance(op, SendOp):
                    blocks = (
                        ""
                        if schedule.nblocks == 1
                        else "[" + ",".join(map(str, op.blocks)) + "]"
                    )
                    parts.append(f"{prog.rank}→{op.peer}{blocks}")
        lines.append(f"  round {step + 1}: " + "  ".join(parts))
    return "\n".join(lines)


def reference_render_kring_rounds(p: int, k: int) -> str:
    """Fig. 6: the k-ring allgather's alternating intra/inter structure.

    >>> text = render_kring_rounds(6, 3)
    >>> "inter" in text and "intra" in text
    True
    """
    sched = kring_allgather(p, k)
    groups = kring_groups(p, k)
    group_of = {}
    for gi, grp in enumerate(groups):
        for r in grp:
            group_of[r] = gi
    programs = programs_of(sched)
    nsteps = max(len(prog.steps) for prog in programs)
    lines = [f"k-ring allgather p={p} k={k} (groups {groups})"]
    for step in range(nsteps):
        parts = []
        kinds = set()
        for prog in programs:
            if step >= len(prog.steps):
                continue
            for op in prog.steps[step].ops:
                if isinstance(op, SendOp):
                    kind = (
                        "intra"
                        if group_of[prog.rank] == group_of[op.peer]
                        else "inter"
                    )
                    kinds.add(kind)
                    parts.append(f"{prog.rank}→{op.peer}")
        kind_label = "/".join(sorted(kinds)) if kinds else "idle"
        lines.append(f"  round {step + 1} ({kind_label}): " + "  ".join(parts))
    return "\n".join(lines)


def _op_to_dict(op: Op) -> Dict:
    if isinstance(op, SendOp):
        return {"op": "send", "peer": op.peer, "blocks": list(op.blocks)}
    if isinstance(op, RecvOp):
        return {
            "op": "recv",
            "peer": op.peer,
            "blocks": list(op.blocks),
            "reduce": op.reduce,
        }
    if isinstance(op, CopyOp):
        return {"op": "copy", "src": op.src, "dst": op.dst}
    raise ScheduleError(f"cannot serialize op {op!r}")


def reference_schedule_to_json(schedule: Schedule) -> str:
    """Serialize a schedule to a JSON string (stable key order)."""
    payload = {
        "format": _FORMAT_VERSION,
        "collective": schedule.collective,
        "algorithm": schedule.algorithm,
        "nranks": schedule.nranks,
        "nblocks": schedule.nblocks,
        "root": schedule.root,
        "k": schedule.k,
        "meta": _jsonable_meta(schedule.meta),
        "programs": [
            [[_op_to_dict(op) for op in step.ops] for step in prog.steps]
            for prog in programs_of(schedule)
        ],
    }
    return json.dumps(payload, sort_keys=True)


def reference_hierarchical_allreduce_at_one_rank() -> Schedule:
    """``hierarchical_allreduce``'s ``p == 1`` branch."""
    return from_programs(
        collective="allreduce",
        algorithm="hierarchical",
        nranks=1,
        nblocks=1,
        programs=empty_programs(1),
    )


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

_REFERENCE = {
    (repro.core.ring, "kring_allgather"): reference_kring_allgather,
    (repro.core.bruck, "bruck_allgather"): reference_bruck_allgather,
    (repro.core.bruck, "dissemination_barrier"):
        reference_dissemination_barrier,
    (repro.core.alltoall, "pairwise_alltoall"): reference_pairwise_alltoall,
    (repro.core.alltoall, "bruck_alltoall"): reference_bruck_alltoall,
    (repro.core.pipeline, "chain_bcast"): reference_chain_bcast,
    (repro.core.baselines, "linear_bcast"): reference_linear_bcast,
    (repro.core.baselines, "linear_reduce"): reference_linear_reduce,
    (repro.core.baselines, "linear_gather"): reference_linear_gather,
    (repro.core.baselines, "linear_scatter"): reference_linear_scatter,
}
#: The registry entries holding a family builder itself (the others
#: look theirs up by module attribute when they build).
DIRECT = {
    ("allgather", "kring"): registry._knomial(reference_kring_allgather),
    ("allgather", "bruck"): registry._knomial(reference_bruck_allgather),
    ("barrier", "k_dissemination"):
        registry._knomial(reference_dissemination_barrier),
    ("alltoall", "pairwise"): reference_pairwise_alltoall,
    ("bcast", "linear"): reference_linear_bcast,
    ("reduce", "linear"): reference_linear_reduce,
    ("gather", "linear"): reference_linear_gather,
    ("scatter", "linear"): reference_linear_scatter,
}
#: Every registry entry whose build goes through the families.
THROUGH_FAMILIES = sorted(DIRECT) + [
    ("allgather", "ring"), ("allreduce", "kring"), ("allreduce", "ring"),
    ("reduce_scatter", "kring"), ("reduce_scatter", "ring"),
    ("bcast", "kring"), ("bcast", "ring"), ("bcast", "scatter_allgather"),
    ("bcast", "pipelined_chain"), ("alltoall", "bruck"),
    ("barrier", "dissemination"),
]


@contextmanager
def op_object_builders():
    """Every family build runs the reference bodies."""
    with pytest.MonkeyPatch.context() as patch:
        for (module, name), reference in _REFERENCE.items():
            patch.setattr(module, name, reference)
        for key, builder in DIRECT.items():
            patch.setitem(registry._REGISTRY, key, dataclasses.replace(
                registry._REGISTRY[key], builder=builder
            ))
        yield


def _roots(p: int) -> List[int]:
    return sorted({0, 1 % p, p // 2, p - 1})


def _sampled(p: int, every: range) -> List[int]:
    """Every radix of ``every`` up to p = 12; past it, the small radices
    and those about ``k = p`` (past p = 33, 1, 2 and 8)."""
    if p <= 12:
        return list(every)
    if p <= 33:
        return [k for k in every if k <= 3 or k in (p // 2, p, p + 1)]
    return [k for k in every if k in (1, 2, 8)]


#: Ranks: the whole grid to p = 12, sampled radices to p = 33 and at
#: the larger sizes (every radix to p = 33 matches too; the reference's
#: per-rank loops take ~5 s over it).
GRID_P = list(range(1, 34)) + [64, 100, 128]


def _pairs(p: int):
    """``(got, want)`` over one rank count's grid."""
    ring_, bruck_ = repro.core.ring, repro.core.bruck
    a2a, chain, linear = (repro.core.alltoall, repro.core.pipeline,
                          repro.core.baselines)
    for k in _sampled(p, range(1, p + 2)):
        yield ring_.kring_allgather(p, k), reference_kring_allgather(p, k)
    for k in _sampled(p, range(2, p + 2)):
        yield bruck_.bruck_allgather(p, k), reference_bruck_allgather(p, k)
        yield (bruck_.dissemination_barrier(p, k),
               reference_dissemination_barrier(p, k))
        if p <= 64:
            yield a2a.bruck_alltoall(p, k), reference_bruck_alltoall(p, k)
    yield a2a.pairwise_alltoall(p), reference_pairwise_alltoall(p)
    for root in _roots(p):
        for segments in range(1, 9) if p <= 33 else (1, 8):
            yield (chain.chain_bcast(p, segments, root=root),
                   reference_chain_bcast(p, segments, root=root))
        for name in ("bcast", "reduce", "gather", "scatter"):
            yield (getattr(linear, f"linear_{name}")(p, root=root),
                   globals()[f"reference_linear_{name}"](p, root=root))


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p", GRID_P)
def test_the_families_match_the_op_object_reference(p):
    for got, want in _pairs(p):
        if p <= 33:
            assert_same(got, want)
        else:
            assert_same_columns(got, want)


#: Registry points: every radix up to p = 8, sampled past it, each
#: rooted entry at roots {0, 1, p // 2, p − 1}.
REGISTRY_P = list(range(1, 9)) + [12, 17, 33]


def _registry_points(collective: str, algorithm: str):
    entry = registry.info(collective, algorithm)
    for p in REGISTRY_P:
        ks = [None]
        if entry.takes_k:
            lo = entry.min_k
            ks = (range(lo, p + 2) if p <= 8
                  else sorted({lo, 2, 3, p // 2, p - 1, p + 1}))
        for k in ks:
            for root in (_roots(p) if entry.takes_root else [0]):
                yield p, k, root


@pytest.mark.parametrize(
    "collective, algorithm", THROUGH_FAMILIES,
    ids=[f"{c}/{a}" for c, a in THROUGH_FAMILIES],
)
def test_registry_entries_match_the_op_object_reference(collective,
                                                        algorithm):
    points = list(_registry_points(collective, algorithm))
    # One phase cache per side, as a composite's build would share.
    with sharing_phases(ContentCache("phase", 1 << 12)):
        entry = registry.info(collective, algorithm)
        built = [entry.build(p, k=k, root=root) for p, k, root in points]
    with op_object_builders(), sharing_phases(ContentCache("phase", 1 << 12)):
        entry = registry.info(collective, algorithm)
        reference = [entry.build(p, k=k, root=root) for p, k, root in points]
    for got, want in zip(built, reference):
        assert_same(got, want)


def test_hierarchical_at_one_rank_matches_the_op_object_reference():
    assert_same(hierarchical_allreduce(1, 1),
                reference_hierarchical_allreduce_at_one_rank())


def _refusal(fn, *args, **kwargs) -> str:
    with pytest.raises(ScheduleError) as caught:
        fn(*args, **kwargs)
    return str(caught.value)


#: (builder, arguments) no builder of the families may accept.
REFUSED = [
    ((repro.core.ring, "kring_allgather"), (0, 2), {}),
    ((repro.core.ring, "kring_allgather"), (4, 0), {}),
    ((repro.core.bruck, "bruck_allgather"), (4, 1), {}),
    ((repro.core.bruck, "bruck_allgather"), (4, 2.0), {}),
    ((repro.core.bruck, "bruck_allgather"), (0, 2), {}),
    ((repro.core.bruck, "dissemination_barrier"), (4, 1), {}),
    ((repro.core.bruck, "dissemination_barrier"), (-1, 3), {}),
    ((repro.core.alltoall, "pairwise_alltoall"), (0,), {}),
    ((repro.core.alltoall, "bruck_alltoall"), (4, 1), {}),
    ((repro.core.alltoall, "bruck_alltoall"), (0, 2), {}),
    ((repro.core.pipeline, "chain_bcast"), (4, 0), {}),
    ((repro.core.pipeline, "chain_bcast"), (4, 2), {"root": 4}),
    ((repro.core.pipeline, "chain_bcast"), (0, 1), {}),
] + [
    ((repro.core.baselines, f"linear_{name}"), (4,), {"root": root})
    for name in ("bcast", "reduce", "gather", "scatter")
    for root in (4, -1)
]


@pytest.mark.parametrize(
    "builder, args, kwargs", REFUSED,
    ids=[f"{name}{args}{kwargs or ''}" for (_, name), args, kwargs in REFUSED],
)
def test_refusals_match_the_reference(builder, args, kwargs):
    module, name = builder
    assert _refusal(getattr(module, name), *args, **kwargs) == _refusal(
        _REFERENCE[builder], *args, **kwargs
    )


def test_render_and_json_read_the_columns():
    for p in (1, 2, 5, 6, 7, 13):
        for k in range(1, p + 2):
            assert render_kring_rounds(p, k) == reference_render_kring_rounds(
                p, k
            )
        for got, _ in _pairs(p):
            assert render_rounds(got) == reference_render_rounds(got)
            assert render_rounds(got, max_rounds=2) == (
                reference_render_rounds(got, max_rounds=2)
            )
            assert schedule_to_json(got) == reference_schedule_to_json(got)
    copies = [RankProgram(rank=0), RankProgram(rank=1)]
    copies[0].add(CopyOp(src=0, dst=1), SendOp(peer=1, blocks=(1, 0)))
    copies[1].add(RecvOp(peer=0, blocks=(1, 0), reduce=True))
    hand = from_programs("bcast", "t", 2, 2, copies, root=0,
                         meta={"m": (1, 2)})
    assert render_rounds(hand) == reference_render_rounds(hand)
    assert schedule_to_json(hand) == reference_schedule_to_json(hand)


def test_no_registry_build_makes_an_op_object():
    def refuse(*args, **kwargs):
        raise AssertionError("a registry build made an op object")

    with pytest.MonkeyPatch.context() as patch:
        for cls in (SendOp, RecvOp, CopyOp, Step, RankProgram):
            patch.setattr(cls, "__init__", refuse)
        patch.setattr(RankProgram, "add_step", refuse)
        patch.setattr(RankProgram, "add", refuse)
        for collective in registry.COLLECTIVES:
            for algorithm in registry.algorithms_for(collective):
                entry = registry.info(collective, algorithm)
                for p in (1, 2, 7, 12, 16):
                    ks = [None]
                    if entry.takes_k:
                        ks = sorted({entry.min_k, 2, 3, p + 1})
                    for k in ks:
                        for root in _roots(p) if entry.takes_root else [0]:
                            entry.build(p, k=k, root=root)
        for p, ppn in ((1, 1), (8, 2), (12, 3)):
            hierarchical_allreduce(p, ppn)
        with pytest.raises(AssertionError, match="op object"):
            reference_linear_bcast(4)
        with pytest.raises(AssertionError, match="op object"):
            reference_hierarchical_allreduce_at_one_rank()
