"""All-to-all algorithms: pairwise exchange and the k-port Bruck routing.

The paper's related work closes with Fan et al. [12] generalizing Bruck's
algorithm for all-to-all — the same radix-generalization move applied to
the remaining heavyweight collective.  This module implements that
lineage on the schedule IR:

* :func:`pairwise_alltoall` — the classic ``p - 1``-round exchange: in
  round ``t`` every rank sends its block for ``(r + t) mod p`` directly
  and receives its block from ``(r - t) mod p``.  Every block moves
  exactly once (bandwidth-optimal), but small messages pay ``p - 1``
  latencies.
* :func:`bruck_alltoall` — store-and-forward digit routing: block
  ``(s, d)`` travels by the base-``k`` digits of ``(d - s) mod p``, so
  everything arrives within ``⌈log_k p⌉`` rounds at the cost of each
  block being forwarded up to ``⌈log_k p⌉`` times.  The radix trades
  rounds against forwarding volume — the all-to-all analogue of the
  paper's recursive multiplying trade-off.

Block geometry: all-to-all needs ``p²`` logical blocks — block
``s·p + d`` is the data rank ``s`` owes rank ``d``.  Buffers span the
whole block space (each rank starts holding its row and must end holding
its column); relay ranks legitimately carry third-party blocks in
transit, which the contribution-set validator checks end to end.
"""

from __future__ import annotations

import numpy as np

from ..errors import ScheduleError
from .primitives import check_radix, expand_messages, ilog
from .schedule import Schedule

__all__ = ["pairwise_alltoall", "bruck_alltoall", "alltoall_block"]


def alltoall_block(src: int, dst: int, p: int) -> int:
    """Block id carrying rank ``src``'s data for rank ``dst``.

    >>> alltoall_block(2, 1, 4)
    9
    """
    if not (0 <= src < p and 0 <= dst < p):
        raise ScheduleError(f"ranks ({src}, {dst}) out of range for p={p}")
    return src * p + dst


def pairwise_alltoall(p: int) -> Schedule:
    """Pairwise-exchange all-to-all: ``p - 1`` rounds, every block moves
    exactly once (cost ``(p-1)·(α + β·n/p²)`` per eq.-(8)-style counting).

    Rank ``r``'s round ``t`` sends block ``r·p + (r+t) mod p`` to
    ``(r+t) mod p``, then receives block ``((r−t) mod p)·p + r`` from
    ``(r−t) mod p``.
    """
    if p < 1:
        raise ScheduleError(f"p must be >= 1, got {p}")
    rank, t = np.repeat(np.arange(p), p - 1), np.tile(np.arange(1, p), p)
    to = (rank + t) % p
    columns = expand_messages(
        p, rank, to, (t, t), (0 * t, 0 * t + 1), 0 * t + 1, rank * p + to
    )
    return Schedule.from_columns(
        "alltoall", "pairwise", p, p * p, columns,
        meta={"rounds": max(p - 1, 0)},
    )


def bruck_alltoall(p: int, k: int = 2) -> Schedule:
    """K-port Bruck all-to-all: ``⌈log_k p⌉`` rounds of digit routing.

    Round ``i``: every rank forwards, to each partner ``j·k^i`` ahead of
    it (``j = 1..k-1``), all blocks it currently holds whose remaining
    displacement ``(dst - here) mod p`` has base-k digit ``i`` equal to
    ``j``.  Messages aggregate many blocks, so small per-pair payloads
    amortize latency — the small-message regime where [12]'s generalized
    Bruck wins, reproduced by ``bench_alltoall_crossover.py``.

    Where a block is, is index arithmetic: at round ``i`` block
    ``(s, d)`` with ``D = (d − s) mod p`` sits at rank
    ``s + (D mod kⁱ)``, and moves ``digit_i(D)·kⁱ`` ahead when that
    digit is nonzero.  A rank's step sends its messages in digit order,
    then receives in digit order; each message lists its blocks by id.
    """
    check_radix(k)
    if p < 1:
        raise ScheduleError(f"p must be >= 1, got {p}")
    rounds = ilog(k, p)
    src, disp = np.divmod(np.arange(p * p), p)
    disp = (disp - src) % p
    moved, at, digit, slot = [], [], [], []
    stride = 1
    for i in range(rounds):
        d = disp // stride % k
        block = np.flatnonzero(d)
        here = (src[block] + disp[block] % stride) % p
        # Stable: a message's blocks stay in id order.
        by = np.lexsort((d[block], here))
        moved.append(block[by])
        at.append(here[by])
        digit.append(d[block][by])
        slot.append(np.full(len(block), i))
        stride *= k
    moved, at, digit, slot = (
        np.concatenate([np.zeros(0, dtype=np.int64)] + x)
        for x in (moved, at, digit, slot)
    )
    # One message per run of equal (round, sender, digit).
    opens = np.ones(len(moved), dtype=bool)
    opens[1:] = ((slot[1:] != slot[:-1]) | (at[1:] != at[:-1])
                 | (digit[1:] != digit[:-1]))
    lo = np.flatnonzero(opens)
    n = np.diff(np.append(lo, len(moved)))
    sender, j, rnd = at[lo], digit[lo], slot[lo]
    columns = expand_messages(
        p, sender, (sender + j * k ** rnd) % p, (rnd, rnd), (j, j + k), n,
        moved,
    )
    return Schedule.from_columns(
        "alltoall", "bruck" if k == 2 else "bruck_kport", p, p * p, columns,
        k=k, meta={"rounds": rounds},
    )
