"""K-nomial tree collective algorithms (paper §III).

A k-nomial tree generalizes the binomial tree: at every level a node hands
off to ``k - 1`` children simultaneously instead of one, shrinking the tree
depth from ``log2(p)`` to ``log_k(p)`` at the price of ``k - 1`` concurrent
messages per level.  The concurrency is expressed in the schedule IR as a
single :class:`~repro.core.schedule.Step` holding all ``k - 1`` operations,
which the simulator maps onto NIC ports and per-message injection overhead
— exactly the multi-port/message-buffering interplay the paper identifies
as the mechanism behind the generalization (§II-B2).

Tree structure (relative ranks, root = 0): scanning masks ``1, k, k², …``,
a node ``r`` attaches to parent ``r - (r mod m·k)`` at the first mask ``m``
where ``r mod (m·k) != 0``.  Its children at each mask ``m' < M`` (its own
attach mask) are ``r + i·m'`` for ``i = 1 … k-1``.  With ``k = 2`` this is
exactly MPICH's binomial tree, which is how the fixed-radix baseline is
produced (see :mod:`repro.core.registry`).

The module provides the four rooted primitives (bcast, reduce, gather,
scatter) plus the composite allgather (= gather + bcast) and allreduce
(= reduce + bcast) the paper's Table I lists, matching cost models (2)–(3).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ScheduleError
from .primitives import (
    absolute_rank,
    all_blocks,
    check_radix,
    check_root,
    compose,
    empty_programs,
    relative_rank,
    shared_phase,
)
from .schedule import Op, RankProgram, RecvOp, Schedule, SendOp

__all__ = [
    "knomial_attach_mask",
    "knomial_parent",
    "knomial_children",
    "knomial_subtree",
    "knomial_bcast",
    "knomial_reduce",
    "knomial_gather",
    "knomial_scatter",
    "knomial_allgather",
    "knomial_allreduce",
]


# ----------------------------------------------------------------------
# Tree structure
# ----------------------------------------------------------------------

def knomial_attach_mask(relr: int, p: int, k: int) -> int:
    """Mask at which relative rank ``relr`` attaches to its parent.

    For the root this is the smallest power of ``k`` that reaches ``p``
    (i.e. one level above every real child), which makes the children
    enumeration below uniform for root and non-root nodes.
    """
    check_radix(k)
    mask = 1
    while mask < p:
        if relr % (mask * k) != 0:
            return mask
        mask *= k
    return mask


def knomial_parent(relr: int, p: int, k: int) -> Optional[int]:
    """Relative parent of ``relr`` in the k-nomial tree, ``None`` for root.

    >>> [knomial_parent(r, 9, 3) for r in range(9)]
    [None, 0, 0, 0, 3, 3, 0, 6, 6]
    """
    if relr == 0:
        return None
    mask = knomial_attach_mask(relr, p, k)
    return relr - (relr % (mask * k))


def knomial_children(relr: int, p: int, k: int) -> List[Tuple[int, int]]:
    """Children of ``relr`` as ``(child_relrank, mask)``, largest mask first.

    Largest-mask-first is the bcast send order: the child that roots the
    deepest subtree gets its data earliest, minimizing the critical path —
    the same ordering MPICH's binomial broadcast uses.

    >>> knomial_children(0, 9, 3)
    [(3, 3), (6, 3), (1, 1), (2, 1)]
    """
    attach = knomial_attach_mask(relr, p, k)
    children = []
    mask = 1
    masks = []
    while mask < attach and mask < p:
        masks.append(mask)
        mask *= k
    for m in reversed(masks):
        for i in range(1, k):
            c = relr + i * m
            if c < p:
                children.append((c, m))
    return children


def knomial_subtree(relr: int, p: int, k: int) -> Tuple[int, int]:
    """Half-open relative-rank interval ``[relr, stop)`` of the subtree.

    A node attached at mask ``M`` owns the contiguous relative ranks
    ``[relr, relr + M)``, clipped to ``p`` — the interval its gather
    contribution covers and its scatter delivery must fill.

    >>> knomial_subtree(3, 9, 3)
    (3, 6)
    >>> knomial_subtree(0, 9, 3)
    (0, 9)
    """
    attach = knomial_attach_mask(relr, p, k)
    if relr == 0:
        # Root's interval covers everything; attach may overshoot p.
        while attach < p:
            attach *= k
        return 0, p
    return relr, min(relr + attach, p)


def _subtree_blocks(relr: int, p: int, k: int, root: int) -> Tuple[int, ...]:
    """Absolute block ids covered by ``relr``'s subtree (blocks are indexed
    by absolute rank for gather/scatter semantics)."""
    lo, hi = knomial_subtree(relr, p, k)
    return tuple(sorted(absolute_rank(x, root, p) for x in range(lo, hi)))


# ----------------------------------------------------------------------
# Rooted primitives
# ----------------------------------------------------------------------

def knomial_bcast(p: int, k: int, *, root: int = 0, nblocks: int = 1) -> Schedule:
    """K-nomial broadcast: cost model ``log_k(p)·α + (k-1)·n·log_k(p)·β``.

    ``nblocks`` lets composite algorithms broadcast an already-partitioned
    buffer (e.g. the bcast phase of a k-nomial allgather); every message
    still carries the whole buffer.
    """
    check_radix(k)
    check_root(root, p)
    payload = all_blocks(nblocks)
    programs = empty_programs(p)
    for rank in range(p):
        relr = relative_rank(rank, root, p)
        prog = programs[rank]
        parent = knomial_parent(relr, p, k)
        if parent is not None:
            prog.add(RecvOp(peer=absolute_rank(parent, root, p), blocks=payload))
        # One step per tree level, k-1 concurrent sends per step.
        level_ops: List[Op] = []
        current_mask: Optional[int] = None
        for child, mask in knomial_children(relr, p, k):
            if current_mask is not None and mask != current_mask:
                prog.add_step(level_ops)
                level_ops = []
            current_mask = mask
            level_ops.append(
                SendOp(peer=absolute_rank(child, root, p), blocks=payload)
            )
        prog.add_step(level_ops)
    return Schedule(
        collective="bcast",
        algorithm="knomial" if k != 2 else "binomial",
        nranks=p,
        nblocks=nblocks,
        programs=programs,
        root=root,
        k=k,
    )


def knomial_reduce(p: int, k: int, *, root: int = 0, nblocks: int = 1) -> Schedule:
    """K-nomial reduction: children's partials stream up the tree.

    Each node absorbs its ``k - 1`` same-level children in one concurrent
    step (paying ``(k-1)(β + γ)n`` per level, model (3)), smallest mask
    first so near leaves unblock earliest, then forwards its partial to its
    parent.
    """
    check_radix(k)
    check_root(root, p)
    payload = all_blocks(nblocks)
    programs = empty_programs(p)
    for rank in range(p):
        relr = relative_rank(rank, root, p)
        prog = programs[rank]
        attach = knomial_attach_mask(relr, p, k)
        mask = 1
        while mask < attach and mask < p:
            ops: List[Op] = []
            for i in range(1, k):
                child = relr + i * mask
                if child < p:
                    ops.append(
                        RecvOp(
                            peer=absolute_rank(child, root, p),
                            blocks=payload,
                            reduce=True,
                        )
                    )
            prog.add_step(ops)
            mask *= k
        parent = knomial_parent(relr, p, k)
        if parent is not None:
            prog.add(SendOp(peer=absolute_rank(parent, root, p), blocks=payload))
    return Schedule(
        collective="reduce",
        algorithm="knomial" if k != 2 else "binomial",
        nranks=p,
        nblocks=nblocks,
        programs=programs,
        root=root,
        k=k,
    )


def knomial_gather(p: int, k: int, *, root: int = 0) -> Schedule:
    """K-nomial gather (Fig. 1/2 of the paper): block ``b`` = rank ``b``'s data.

    Identical tree walk to :func:`knomial_reduce`, but payloads are the
    children's whole subtree intervals instead of reduced partials, so the
    data volume grows toward the root: cost ``log_k(p)·α + n·(p-1)/p·β``.
    """
    check_radix(k)
    check_root(root, p)
    programs = empty_programs(p)
    for rank in range(p):
        relr = relative_rank(rank, root, p)
        prog = programs[rank]
        attach = knomial_attach_mask(relr, p, k)
        mask = 1
        while mask < attach and mask < p:
            ops: List[Op] = []
            for i in range(1, k):
                child = relr + i * mask
                if child < p:
                    ops.append(
                        RecvOp(
                            peer=absolute_rank(child, root, p),
                            blocks=_subtree_blocks(child, p, k, root),
                        )
                    )
            prog.add_step(ops)
            mask *= k
        parent = knomial_parent(relr, p, k)
        if parent is not None:
            prog.add(
                SendOp(
                    peer=absolute_rank(parent, root, p),
                    blocks=_subtree_blocks(relr, p, k, root),
                )
            )
    return Schedule(
        collective="gather",
        algorithm="knomial" if k != 2 else "binomial",
        nranks=p,
        nblocks=p,
        programs=programs,
        root=root,
        k=k,
    )


def knomial_scatter(p: int, k: int, *, root: int = 0) -> Schedule:
    """K-nomial scatter: the exact reverse of :func:`knomial_gather`.

    Used standalone and as the first phase of scatter-allgather broadcasts
    (classic MPICH "van de Geijn" bcast and our recursive-multiplying and
    k-ring bcasts).
    """
    check_radix(k)
    check_root(root, p)
    programs = empty_programs(p)
    for rank in range(p):
        relr = relative_rank(rank, root, p)
        prog = programs[rank]
        parent = knomial_parent(relr, p, k)
        if parent is not None:
            prog.add(
                RecvOp(
                    peer=absolute_rank(parent, root, p),
                    blocks=_subtree_blocks(relr, p, k, root),
                )
            )
        level_ops: List[Op] = []
        current_mask: Optional[int] = None
        for child, mask in knomial_children(relr, p, k):
            if current_mask is not None and mask != current_mask:
                prog.add_step(level_ops)
                level_ops = []
            current_mask = mask
            level_ops.append(
                SendOp(
                    peer=absolute_rank(child, root, p),
                    blocks=_subtree_blocks(child, p, k, root),
                )
            )
        prog.add_step(level_ops)
    return Schedule(
        collective="scatter",
        algorithm="knomial" if k != 2 else "binomial",
        nranks=p,
        nblocks=p,
        programs=programs,
        root=root,
        k=k,
    )


# ----------------------------------------------------------------------
# Composites (paper eq. (2)/(3): allgather = gather ∘ bcast,
# allreduce = reduce ∘ bcast)
# ----------------------------------------------------------------------

def knomial_allgather(p: int, k: int) -> Schedule:
    """K-nomial allgather: gather to rank 0, then k-nomial bcast of the
    assembled buffer (model (3): ``log_k(p)·α + (k-1)n(log_k p + (p-1)/p)β``)."""
    gather = shared_phase(knomial_gather, p, k, root=0)
    bcast = knomial_bcast(p, k, root=0, nblocks=p)
    return compose("allgather", gather.algorithm, [gather, bcast], k=k)


def knomial_allreduce(p: int, k: int) -> Schedule:
    """K-nomial allreduce: reduce to rank 0, then k-nomial bcast of the
    result (model (3))."""
    reduce_ = shared_phase(knomial_reduce, p, k, root=0)
    bcast = shared_phase(knomial_bcast, p, k, root=0)
    return compose("allreduce", reduce_.algorithm, [reduce_, bcast], k=k)
