"""K-nomial tree collective algorithms (paper §III).

A k-nomial tree generalizes the binomial tree: at every level a node hands
off to ``k - 1`` children simultaneously instead of one, shrinking the tree
depth from ``log2(p)`` to ``log_k(p)`` at the price of ``k - 1`` concurrent
messages per level.  The concurrency is expressed in the schedule IR as a
single step holding all ``k - 1`` operations, which the simulator maps
onto NIC ports and per-message injection overhead — exactly the
multi-port/message-buffering interplay the paper identifies as the
mechanism behind the generalization (§II-B2).

Tree structure (relative ranks, root = 0): scanning masks ``1, k, k², …``,
a node ``r`` attaches to parent ``r - (r mod m·k)`` at the first mask ``m``
where ``r mod (m·k) != 0``.  Its children at each mask ``m' < M`` (its own
attach mask) are ``r + i·m'`` for ``i = 1 … k-1``, and its subtree is the
relative ranks ``[r, r + M)`` clipped to ``p``.  With ``k = 2`` this is
exactly MPICH's binomial tree, which is how the fixed-radix baseline is
produced (see :mod:`repro.core.registry`).

All four rooted primitives run that one tree, :func:`knomial_tree`.
Bcast and scatter run it downward and differ only in payload (the whole
buffer, or the child's subtree); their programs are expanded into
columns in one pass, root ≠ 0 being the index map ``(x + root) % p``.
Reduce and gather run it upward: they are the
:func:`~repro.core.primitives.time_reversed` bcast and scatter.  The
composite allgather (= gather + bcast) and allreduce (= reduce + bcast)
the paper's Table I lists follow, matching cost models (2)–(3).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .primitives import (
    check_radix, check_root, compose, expand_messages, shared_phase,
    time_reversed,
)
from .schedule import Schedule, spans

__all__ = [
    "knomial_tree",
    "knomial_bcast",
    "knomial_reduce",
    "knomial_gather",
    "knomial_scatter",
    "knomial_allgather",
    "knomial_allreduce",
]


def knomial_tree(p: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(attach, parent)``: every relative rank's attach mask and parent.

    The root's parent is −1 and its mask the first power of ``k``
    reaching ``p``, so its children enumerate like everyone else's.
    Fig. 2, the trinomial tree on 9 nodes — 0 roots {1, 2, 3, 6}, 3 roots
    {4, 5}, 6 roots {7, 8}:

    >>> attach, parent = knomial_tree(9, 3)
    >>> parent.tolist()
    [-1, 0, 0, 0, 3, 3, 0, 6, 6]
    >>> attach.tolist()
    [9, 1, 1, 3, 1, 1, 3, 1, 1]
    """
    check_radix(k)
    rel = np.arange(p)
    attach = np.ones(p, dtype=np.int64)
    mask = 1
    while mask < p:
        attach[rel % (mask * k) == 0] = mask * k
        mask *= k
    return attach, np.where(rel == 0, -1, rel - rel % (attach * k))


def _downward(collective: str, p: int, k: int, root: int,
              nblocks: int) -> Schedule:
    """The tree run from the root down: every non-root receives from its
    parent, then sends to its children one step per mask, largest mask
    first (the child rooting the deepest subtree gets its data earliest,
    as MPICH's binomial broadcast orders it).  A bcast moves the whole
    buffer; a scatter each child's subtree, as absolute block ids."""
    check_radix(k)
    check_root(root, p)
    attach, parent = knomial_tree(p, k)
    # Each edge is a message from the parent to the child at the child's
    # mask: the receive opens the child's program (its own sends use
    # smaller masks), and a parent's sends at one mask are one step,
    # children in order.
    child = np.arange(1, p)
    level = attach[child]
    if collective == "scatter":
        # The subtree [child, child + mask) clipped to p, mapped to
        # absolute ids in ascending order: the part past p wraps to the
        # front.
        lo, hi = child + root, np.minimum(child + level, p) + root
        nblk = hi - lo
        blocks = spans(
            np.column_stack((np.maximum(lo, p) - p, np.minimum(lo, p))).ravel(),
            np.column_stack((np.maximum(hi, p) - p, np.minimum(hi, p))).ravel(),
        )
    else:
        nblk = np.full(p - 1, nblocks)
        blocks = np.tile(np.arange(nblocks), p - 1)
    columns = expand_messages(
        p, (parent[1:] + root) % p, (child + root) % p, (-level, -level),
        (child, child), nblk, blocks,
    )
    return Schedule.from_columns(
        collective, "knomial" if k != 2 else "binomial", p, nblocks, columns,
        root=root, k=k,
    )


def _upward(collective: str, down: Schedule, *, reduce: bool) -> Schedule:
    """``down`` run backwards: the same tree, from the leaves up."""
    return Schedule.from_columns(
        collective, down.algorithm, down.nranks, down.nblocks,
        time_reversed(down.columns(), reduce=reduce), root=down.root,
        k=down.k,
    )


# ----------------------------------------------------------------------
# Rooted primitives
# ----------------------------------------------------------------------

def knomial_bcast(p: int, k: int, *, root: int = 0, nblocks: int = 1) -> Schedule:
    """K-nomial broadcast: cost model ``log_k(p)·α + (k-1)·n·log_k(p)·β``.

    ``nblocks`` lets composite algorithms broadcast an already-partitioned
    buffer (e.g. the bcast phase of a k-nomial allgather); every message
    still carries the whole buffer.
    """
    return _downward("bcast", p, k, root, nblocks)


def knomial_reduce(p: int, k: int, *, root: int = 0, nblocks: int = 1) -> Schedule:
    """K-nomial reduction: children's partials stream up the tree.

    Each node absorbs its ``k - 1`` same-level children in one concurrent
    step (paying ``(k-1)(β + γ)n`` per level, model (3)), smallest mask
    first so near leaves unblock earliest, then forwards its partial to its
    parent — the bcast of the same tree, time-reversed, every send a
    reducing receive.
    """
    # Asked for as the registry's bcast entry asks, so one tree serves both.
    whole = {} if nblocks == 1 else {"nblocks": nblocks}
    bcast = shared_phase(knomial_bcast, p, k, root=root, **whole)
    return _upward("reduce", bcast, reduce=True)


def knomial_gather(p: int, k: int, *, root: int = 0) -> Schedule:
    """K-nomial gather (Fig. 1/2 of the paper): block ``b`` = rank ``b``'s data.

    The scatter of the same tree, time-reversed: payloads are the
    children's whole subtree intervals instead of reduced partials, so the
    data volume grows toward the root: cost ``log_k(p)·α + n·(p-1)/p·β``.
    """
    scatter = shared_phase(knomial_scatter, p, k, root=root)
    return _upward("gather", scatter, reduce=False)


def knomial_scatter(p: int, k: int, *, root: int = 0) -> Schedule:
    """K-nomial scatter: the exact reverse of :func:`knomial_gather`.

    Used standalone and as the first phase of scatter-allgather broadcasts
    (classic MPICH "van de Geijn" bcast and our recursive-multiplying and
    k-ring bcasts).
    """
    return _downward("scatter", p, k, root, p)


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
