"""Ring and k-ring algorithms (paper §V).

The classic ring algorithm is bandwidth-optimal but link-agnostic: every
round moves one block to the right neighbor, and the implicit barrier
between rounds means the whole ring advances at the pace of its *slowest*
link.  On exascale nodes, where intranode links (Infinity Fabric, NVLink)
are several times faster than the internode NICs, that wastes the fast
links (§II-B3).

The *k-ring* generalization breaks the ring into ``g = ⌈p/k⌉`` groups of
(up to) ``k`` consecutive ranks.  Communication alternates between
``k - 1``-round *intra-group* ring epochs (fast links when ``k`` matches
the processes-per-node count) and single *inter-group* rounds in which each
group hands the block set it just finished circulating to the next group.
Per paper eq. (13), inter-group traffic drops from ``2n(p-1)/p`` (classic
ring) to ``2n(p-k)/p``.

Degenerate radices recover the classic ring exactly: ``k = 1`` (every group
is a singleton, all rounds are inter-group) and ``k >= p`` (one group, all
rounds intra) both produce the same p-1-round neighbor exchange.

Non-uniform groups (``k ∤ p``) — one of the corner cases the paper calls
out (§VI-A) — are handled by circulating *block sets* rather than single
blocks: in an inter round a group's finished set is split into contiguous
chunks, one per member of the receiving group (chunks may be empty or hold
several blocks when group sizes differ), and the following intra epoch
circulates each member's chunk until the group holds the union.

Allreduce composes the time-reversed dual of the k-ring allgather (a
k-ring reduce-scatter, see :func:`repro.core.primitives.dualize_allgather`)
with the k-ring allgather itself — the paper's "partitions offset by one"
construction expressed mechanically.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import ScheduleError
from .knomial import knomial_scatter
from .primitives import (
    compose,
    dualize_allgather,
    empty_programs,
    shared_phase,
)
from .schedule import Op, RankProgram, RecvOp, Schedule, SendOp

__all__ = [
    "kring_groups",
    "kring_allgather",
    "kring_bcast",
    "kring_allreduce",
    "kring_reduce_scatter",
    "ring_allgather",
    "ring_bcast",
    "ring_allreduce",
    "ring_reduce_scatter",
]


def kring_groups(p: int, k: int) -> List[List[int]]:
    """Partition ranks 0..p-1 into contiguous groups of size ``k`` (the
    last group takes the remainder).

    >>> kring_groups(6, 3)
    [[0, 1, 2], [3, 4, 5]]
    >>> kring_groups(7, 3)
    [[0, 1, 2], [3, 4, 5], [6]]
    >>> kring_groups(4, 1)
    [[0], [1], [2], [3]]
    """
    if k < 1:
        raise ScheduleError(f"k-ring group size must be >= 1, got {k}")
    if p < 1:
        raise ScheduleError(f"p must be >= 1, got {p}")
    return [list(range(lo, min(lo + k, p))) for lo in range(0, p, k)]


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


def kring_allgather(p: int, k: int) -> Schedule:
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

    return Schedule(
        collective="allgather",
        algorithm="kring" if 1 < k < p else "ring",
        nranks=p,
        nblocks=p,
        programs=programs,
        k=k,
        meta={"groups": [len(grp) for grp in groups]},
    )


def kring_bcast(p: int, k: int, *, root: int = 0) -> Schedule:
    """K-ring broadcast: binomial scatter of the root buffer, then k-ring
    allgather — the "scatter-allgather" structure the paper reuses for all
    large-message broadcasts (§V-C)."""
    scatter = shared_phase(knomial_scatter, p, 2, root=root if p > 1 else 0)
    allgather = shared_phase(kring_allgather, p, k)
    return compose(
        "bcast",
        allgather.algorithm,
        [scatter, allgather],
        root=root,
        k=k,
    )


def kring_reduce_scatter(p: int, k: int) -> Schedule:
    """K-ring reduce-scatter: the time-reversed dual of the k-ring
    allgather (each block's distribution path becomes its reduction tree)."""
    return dualize_allgather(
        shared_phase(kring_allgather, p, k), "kring" if 1 < k < p else "ring"
    )


def kring_allreduce(p: int, k: int) -> Schedule:
    """K-ring allreduce: k-ring reduce-scatter followed by k-ring
    allgather — the paper's "partitions offset by 1" variant (§V-C), with
    classic ring allreduce (Patarasuk–Yuan) as the ``k ∈ {1, p}`` special
    case."""
    rs = shared_phase(kring_reduce_scatter, p, k)
    ag = shared_phase(kring_allgather, p, k)
    return compose("allreduce", ag.algorithm, [rs, ag], k=k)


# ----------------------------------------------------------------------
# Classic ring baselines (exact k-ring degenerations)
# ----------------------------------------------------------------------

def ring_allgather(p: int) -> Schedule:
    """Classic ring allgather (model (8)/(9)): one group covering all of
    ``p``, i.e. ``kring_allgather(p, k=p)``."""
    return shared_phase(kring_allgather, p, max(p, 1)).relabel(k=None)


def ring_bcast(p: int, *, root: int = 0) -> Schedule:
    """Classic large-message broadcast: binomial scatter + ring allgather."""
    return shared_phase(kring_bcast, p, max(p, 1), root=root).relabel(k=None)


def ring_reduce_scatter(p: int) -> Schedule:
    """Classic ring reduce-scatter (dual of the ring allgather)."""
    return shared_phase(kring_reduce_scatter, p, max(p, 1)).relabel(k=None)


def ring_allreduce(p: int) -> Schedule:
    """Classic ring allreduce (Patarasuk–Yuan): ring reduce-scatter + ring
    allgather."""
    return shared_phase(kring_allreduce, p, max(p, 1)).relabel(k=None)
