"""Bruck-family algorithms: k-port Bruck allgather and the n-way
dissemination barrier.

These extend the paper's ten algorithms along its own related-work axis:
Bruck's algorithm [7] and Hoefler's n-way dissemination barrier [19] are
the classic *rotation-based* exchange patterns, and they generalize over a
radix exactly like the paper's kernels do (Fan et al. [12] do the same for
all-to-all).  Two properties make them valuable here:

* **No fold/unfold.**  Unlike the recursive multiplying butterfly, the
  Bruck exchange handles *any* process count natively — the final round
  simply truncates — so it is the stronger choice for awkward ``p`` where
  the butterfly pays two extra latencies (an ablation the benchmarks
  exercise).
* **Overlapping information flow.**  The dissemination barrier's final
  truncated round delivers overlapping "heard-from" sets.  That is
  harmless for a barrier (membership is idempotent) but would
  double-count a SUM, so these schedules carry the ``idempotent_only``
  marker and the symbolic validator relaxes exactly its disjointness rule
  for them — a precise demonstration of why that rule exists for
  everything else.

Block bookkeeping note: the textbook Bruck allgather stores incoming
blocks at *rotated local positions* and ends with a local rotation.  The
schedule IR names blocks by absolute id, which makes the rotation an
artifact of position-based storage — it disappears entirely, and each
block is received exactly once (so the schedule is also dualizable).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ScheduleError
from .primitives import check_radix, expand_messages, ilog
from .schedule import OP_RECV, OP_REDUCE_RECV, Columns, Schedule, spans

__all__ = [
    "bruck_allgather",
    "dissemination_barrier",
    "bruck_window",
]


def bruck_window(rank: int, size: int, p: int) -> Tuple[int, ...]:
    """The contiguous (mod p) block window ``[rank, rank+size)`` a rank
    holds partway through the Bruck exchange.

    >>> bruck_window(5, 3, 6)
    (5, 0, 1)
    """
    if not 0 < size <= p:
        raise ScheduleError(f"window size {size} out of range for p={p}")
    return tuple((rank + t) % p for t in range(size))


def _partner_rounds(p: int, k: int, toward: int, recv: int) -> Columns:
    """The exchange both families run, expanded into columns.

    Round ``i`` has stride ``s`` (``1``, then multiplied by ``k`` and
    clipped to ``p``); its partners sit at distances ``j·s`` for
    ``j = 1 … k−1`` while ``j·s < min(s·k, p)``.  Every rank's step of
    the round sends to each partner ``j·s`` ranks ``toward`` (``±1``)
    of it, then receives from the partner as far the other way, both in
    ``j`` order.  A Bruck message (``recv`` a plain receive) is the
    sender's window ``[rank, rank + min(s, s·k clipped − j·s))`` mod
    ``p``; a dissemination message (``recv`` reducing) is the token
    block 0.
    """
    rnd, dist, take = [], [], []
    stride = 1
    while stride < p:
        target = min(stride * k, p)
        d = np.arange(1, min(k - 1, (target - 1) // stride) + 1) * stride
        rnd.append(np.full(len(d), len(rnd)))
        dist.append(d)
        take.append(np.minimum(stride, target - d))
        stride = target
    # One message per (rank, partner slot).
    rnd, dist, take = (
        np.tile(np.concatenate([np.zeros(0, dtype=np.int64)] + x), p)
        for x in (rnd, dist, take)
    )
    src = np.repeat(np.arange(p), len(dist) // p)
    if recv == OP_RECV:
        nblk, blocks = take, spans(src, src + take) % p
    else:
        nblk, blocks = 0 * take + 1, 0 * take
    return expand_messages(
        p, src, (src + toward * dist) % p, (rnd, rnd), (dist, p + dist),
        nblk, blocks, recv,
    )


def bruck_allgather(p: int, k: int = 2) -> Schedule:
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
    return Schedule.from_columns(
        "allgather", "bruck" if k == 2 else "bruck_kport", p, p,
        _partner_rounds(p, k, -1, OP_RECV), k=k,
        meta={"rounds": ilog(k, p)},
    )


def dissemination_barrier(p: int, k: int = 2) -> Schedule:
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
    return Schedule.from_columns(
        "barrier", "dissemination" if k == 2 else "k_dissemination", p, 1,
        _partner_rounds(p, k, 1, OP_REDUCE_RECV), k=k,
        meta={"rounds": ilog(k, p), "idempotent_only": True},
    )
