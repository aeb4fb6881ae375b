"""Recursive doubling and recursive multiplying algorithms (paper §IV).

Recursive doubling is the classic pairwise butterfly: in round ``i`` each
process exchanges its accumulated state with a partner ``2^i`` apart,
finishing in ``log2(p)`` rounds.  The paper's *recursive multiplying*
generalization exchanges with ``k - 1`` partners per round (a k-way
butterfly), finishing in ``log_k(p)`` rounds at the price of ``k - 1``
concurrent messages per process per round — load the multi-port NIC model
in :mod:`repro.simnet` turns into the empirical optimum ``k ≈ #ports``
(paper Fig. 8b).

Process counts that are not powers of ``k`` are handled in two layers,
mirroring the corner-case engineering the paper reports (§VI-A):

1. **Mixed-radix core.**  Rather than insisting on ``k^m`` processes, the
   butterfly runs on the largest ``q ≤ p`` whose prime factors are all
   ``≤ k`` (a "k-smooth" core), with a per-round radix schedule chosen
   greedily as the largest divisor ``≤ k``.  E.g. ``p=12, k=4`` runs rounds
   of radix 4 then 3 with *no* folding at all.
2. **Fold/unfold remainder.**  The ``p - q`` leftover processes fold their
   contribution onto a core partner in a pre-step and receive the final
   result in a post-step — the standard MPICH non-power-of-two treatment,
   generalized.

The allreduce and the allgather are one expansion of fold, butterfly and
unfold into columns (:func:`_butterfly`, no Python call per op); the
bcast composes the allgather with the k-nomial scatter, and the
reduce-scatter is the allgather's dual.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import ScheduleError
from .knomial import knomial_scatter
from .primitives import check_radix, compose, expand_messages, shared_phase
from .schedule import OP_RECV, OP_REDUCE_RECV, Schedule, spans

__all__ = [
    "smooth_core",
    "radix_schedule",
    "recursive_multiplying_allreduce",
    "recursive_multiplying_allgather",
    "recursive_multiplying_bcast",
    "recursive_doubling_allreduce",
    "recursive_doubling_allgather",
    "recursive_doubling_bcast",
]


# ----------------------------------------------------------------------
# Geometry: smooth cores and mixed-radix round schedules
# ----------------------------------------------------------------------

def _is_smooth(n: int, k: int) -> bool:
    """True if every prime factor of ``n`` is ``<= k``."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            if f > k:
                return False
            while n % f == 0:
                n //= f
        f += 1
    return n <= k


def smooth_core(p: int, k: int) -> int:
    """Largest ``q <= p`` whose prime factors are all ``<= k``.

    This is the butterfly core size; the remaining ``p - q`` ranks fold.

    >>> smooth_core(15, 4)
    12
    >>> smooth_core(17, 4)
    16
    >>> smooth_core(9, 3)
    9
    """
    check_radix(k)
    if p < 1:
        raise ScheduleError(f"p must be >= 1, got {p}")
    q = p
    while q > 1 and not _is_smooth(q, k):
        q -= 1
    return q


def radix_schedule(q: int, k: int) -> Tuple[int, ...]:
    """Per-round radices for a k-smooth core ``q``: greedily the largest
    divisor ``<= k`` each round, so rounds are as few and as wide as the
    radix budget allows.

    >>> radix_schedule(12, 4)
    (4, 3)
    >>> radix_schedule(8, 2)
    (2, 2, 2)
    >>> radix_schedule(1, 4)
    ()
    """
    radices: List[int] = []
    rem = q
    while rem > 1:
        f = 0
        for cand in range(min(k, rem), 1, -1):
            if rem % cand == 0:
                f = cand
                break
        if f == 0:
            raise ScheduleError(f"{q} is not {k}-smooth")
        radices.append(f)
        rem //= f
    return tuple(radices)


def _butterfly(collective: str, p: int, k: int) -> Schedule:
    """The fold, the mixed-radix butterfly and the unfold, expanded
    into columns in one pass.

    Every message is placed by its sender's and its receiver's step
    slot and position: slot 0 folds (folded rank ``r`` sends to core
    rank ``(r - q) % q``, which receives in ascending ``r``), slot
    ``1 + i`` is round ``i`` (a core rank sends to its group partners —
    the ranks differing only in the round's digit — in digit order, then
    receives from them in the same order), and the last slot unfolds.
    An allreduce moves block 0 and reduces what the fold and the rounds
    receive.  An allgather moves block sets, as index arithmetic: before
    a round of stride ``s`` a core rank ``c`` holds the blocks whose
    owner shares its digits at ``s`` and above — ``[b, b + s)`` with
    ``b = c - c % s``, and their folded images ``[q + b, q + b + s)``
    clipped to ``p`` (a core absorbs at most one rank: ``q > p / 2``,
    as a power of two is k-smooth).  The unfold hands a folded rank
    every block but its own, which it kept.
    """
    check_radix(k)
    q = smooth_core(p, k)
    radices = radix_schedule(q, k)
    take = OP_RECV if collective == "allgather" else OP_REDUCE_RECV
    f = np.arange(q, p)
    c = (f - q) % q
    zero = np.zeros_like(f)
    last = zero + len(radices) + 1
    # The fold (f to c) and the unfold (c to f).
    src, dst, slot = [f, c], [c, f], [zero, last]
    at_src, at_dst, recv = [zero, f], [f, zero], [zero + take, zero + OP_RECV]
    lo, hi, lo2, hi2 = [f, zero], [f + 1, f], [f + 1] * 2, [f + 1, zero + p]
    stride = 1
    for i, radix in enumerate(radices):
        me = np.repeat(np.arange(q), radix)
        j = np.tile(np.arange(radix), q)
        digit = me // stride % radix
        them = me + (j - digit) * stride
        me, j, them, digit = (x[j != digit] for x in (me, j, them, digit))
        b = me - me % stride
        src.append(me)
        dst.append(them)
        slot.append(np.full(len(me), 1 + i))
        at_src.append(j)
        at_dst.append(radix + digit)
        recv.append(np.full(len(me), take))
        lo.append(b)
        hi.append(b + stride)
        lo2.append(np.minimum(b + q, p))
        hi2.append(np.minimum(b + q + stride, p))
        stride *= radix
    src, dst, slot, at_src, at_dst, recv, lo, hi, lo2, hi2 = (
        np.concatenate(x) for x in (src, dst, slot, at_src, at_dst, recv,
                                    lo, hi, lo2, hi2)
    )
    if take == OP_RECV:
        nblk, nblocks = hi - lo + hi2 - lo2, p
        blocks = spans(np.column_stack((lo, lo2)).ravel(),
                       np.column_stack((hi, hi2)).ravel())
    else:
        nblk, nblocks = np.ones(len(src), dtype=np.int64), 1
        blocks = np.zeros(len(src), dtype=np.int64)
    columns = expand_messages(
        p, src, dst, (slot, slot), (at_src, at_dst), nblk, blocks, recv
    )
    return Schedule.from_columns(
        collective, "recursive_multiplying" if k != 2 else "recursive_doubling",
        p, nblocks, columns, k=k,
        meta={"core": q, "folded": p - q, "radices": list(radices)},
    )


# ----------------------------------------------------------------------
# Allreduce and allgather
# ----------------------------------------------------------------------

def recursive_multiplying_allreduce(p: int, k: int) -> Schedule:
    """Recursive multiplying allreduce (model (6):
    ``log_k(p)·(α + (β+γ)(k-1)n)``).

    Every round each core rank sends its running partial to its ``k - 1``
    group partners and reduce-receives theirs — all ``2(k-1)`` operations
    posted concurrently in one step.  Contribution sets across a group are
    disjoint by construction, so reductions never double-count (checked by
    the symbolic validator for every geometry the tests sweep).
    """
    return _butterfly("allreduce", p, k)


def recursive_multiplying_allgather(p: int, k: int) -> Schedule:
    """Recursive multiplying allgather (model (6):
    ``α·log_k(p) + β·n·(p-1)/p``).

    Block sets multiply by the round radix each round; folded ranks park
    their block with a core partner up front and receive the complete
    buffer at the end (one extra α + βn on each side, the MPICH
    non-power-of-two trade).  A folded rank kept its own block (sending
    is non-destructive), so the unfold omits it — a small bandwidth
    saving, and essential for the reduce-scatter dual: re-delivering a
    block the receiver contributed would double-count that contribution
    under time reversal.
    """
    return _butterfly("allgather", p, k)


# ----------------------------------------------------------------------
# Bcast (scatter + allgather, the multi-phase structure the paper calls
# out as its longest MPICH implementation)
# ----------------------------------------------------------------------

def recursive_multiplying_bcast(p: int, k: int, *, root: int = 0) -> Schedule:
    """Recursive multiplying broadcast: k-nomial scatter of the root's
    buffer followed by a recursive multiplying allgather (model (6) groups
    both phases: ``α·log_k p + β·n·(p-1)/p``)."""
    check_radix(k)
    scatter = shared_phase(knomial_scatter, p, k, root=root)
    allgather = shared_phase(recursive_multiplying_allgather, p, k)
    sched = compose(
        "bcast",
        "recursive_multiplying" if k != 2 else "recursive_doubling",
        [scatter, allgather],
        root=root,
        k=k,
    )
    return sched


# ----------------------------------------------------------------------
# Fixed-radix baselines: recursive doubling is exactly radix 2
# ----------------------------------------------------------------------

def recursive_doubling_allreduce(p: int) -> Schedule:
    """Classic recursive doubling allreduce (model (4)) — radix-2 special
    case of :func:`recursive_multiplying_allreduce`."""
    return shared_phase(recursive_multiplying_allreduce, p, 2)


def recursive_doubling_allgather(p: int) -> Schedule:
    """Classic recursive doubling allgather (model (4))."""
    return shared_phase(recursive_multiplying_allgather, p, 2)


def recursive_doubling_bcast(p: int, *, root: int = 0) -> Schedule:
    """Classic MPICH medium-message broadcast: binomial scatter +
    recursive doubling allgather."""
    return shared_phase(recursive_multiplying_bcast, p, 2, root=root)
