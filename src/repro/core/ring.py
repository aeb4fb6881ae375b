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

from typing import List

import numpy as np

from ..errors import ScheduleError
from .knomial import knomial_scatter
from .primitives import (
    compose,
    dualize_allgather,
    expand_messages,
    shared_phase,
)
from .schedule import Schedule, spans

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


def kring_allgather(p: int, k: int) -> Schedule:
    """K-ring allgather (paper Fig. 6; cost model (11)/(12)).

    Per rank, the program is ``g`` intra-group ring epochs of
    ``(group size - 1)`` rounds each, interleaved with ``g - 1``
    inter-group rounds.  An intra epoch circulates the block set delivered
    by the previous inter round; an inter round forwards the set the group
    just completed to the next group, chunked per receiving member.

    Expanded into columns as index arithmetic over (epoch, round,
    position), one message at a time: a rank is member ``i`` of group
    ``j`` (size ``s``), and a *chunk* ``c`` of group ``h``'s blocks for
    group ``j`` is the ``c``-th of ``s`` contiguous runs (``divmod``,
    first runs one longer; runs may be empty when group sizes differ).
    In epoch ``e`` member ``i`` circulates chunk ``i`` of group
    ``j − e``'s blocks: in its round ``t`` it sends chunk
    ``(i − t + 1) mod s`` to member ``i + 1`` and receives chunk
    ``(i − t) mod s`` from member ``i − 1``.  In inter round ``e``,
    member ``i`` receives its chunk of group ``j − e``'s blocks from
    member ``i mod len(prev)`` of the group before, and a sender posts
    its chunks in order.  Sends precede the receive in a step; a message
    with an empty chunk is no op, and a step with no op no step.
    """
    groups = kring_groups(p, k)
    g = len(groups)
    size = np.array([len(grp) for grp in groups], dtype=np.int64)
    first = np.arange(g, dtype=np.int64) * k
    width = int(size.max())  # slots per epoch: its inter round + rounds

    def chunk(h, j, c):
        """Chunk ``c`` of group ``h``'s blocks for group ``j``: its first
        block and its length."""
        base, extra = np.divmod(size[h], size[j])
        return first[h] + c * base + np.minimum(c, extra), base + (c < extra)

    # Intra messages: (epoch e, group j, round t, member i).
    e, j = np.divmod(np.arange(g * g), g)
    s = size[j]
    per = (s - 1) * s
    idx = spans(0 * per, per)
    e, j, s = (np.repeat(x, per) for x in (e, j, s))
    t, i = idx // s + 1, idx % s
    lo, n = chunk((j - e) % g, j, (i - t + 1) % s)
    src, dst = first[j] + i, first[j] + (i + 1) % s
    slot, at_src, at_dst = e * width + t, 0 * t, 0 * t + 1
    # Inter messages: (epoch e ≥ 1, receiving group j, member i).
    e, j = np.divmod(np.arange(g, g * g), g)
    i = spans(0 * size[j], size[j])
    e, j = np.repeat(e, size[j]), np.repeat(j, size[j])
    prev = (j - 1) % g
    lo2, n2 = chunk((j - e) % g, j, i)
    src = np.concatenate((src, first[prev] + i % size[prev]))
    dst = np.concatenate((dst, first[j] + i))
    slot = np.concatenate((slot, e * width))
    at_src = np.concatenate((at_src, i))
    at_dst = np.concatenate((at_dst, 0 * i + width))
    lo, n = np.concatenate((lo, lo2)), np.concatenate((n, n2))

    live = n > 0
    src, dst, slot, at_src, at_dst, lo, n = (
        x[live] for x in (src, dst, slot, at_src, at_dst, lo, n)
    )
    columns = expand_messages(
        p, src, dst, (slot, slot), (at_src, at_dst), n, spans(lo, lo + n)
    )
    return Schedule.from_columns(
        "allgather", "kring" if 1 < k < p else "ring", p, p, columns, k=k,
        meta={"groups": size.tolist()},
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
