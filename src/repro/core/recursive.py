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
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..errors import ScheduleError
from .knomial import knomial_scatter
from .primitives import check_radix, compose, empty_programs, shared_phase
from .schedule import Op, RankProgram, RecvOp, Schedule, SendOp

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


def _fold_partners(p: int, q: int) -> Dict[int, List[int]]:
    """Map each core rank to the folded ranks it absorbs.

    Folded rank ``r`` (``q <= r < p``) partners with core rank
    ``(r - q) % q``; a core rank can absorb several folded ranks when
    ``p - q > q``.
    """
    partners: Dict[int, List[int]] = {}
    for r in range(q, p):
        partners.setdefault((r - q) % q, []).append(r)
    return partners


def _butterfly_groups(rank: int, stride: int, radix: int) -> List[int]:
    """Partners of ``rank`` in a butterfly round: the other ``radix - 1``
    members of its group (ranks sharing all mixed-radix digits except the
    current one)."""
    digit = (rank // stride) % radix
    base = rank - digit * stride
    return [base + j * stride for j in range(radix) if j != digit]


# ----------------------------------------------------------------------
# Allreduce
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
    check_radix(k)
    programs = empty_programs(p)
    q = smooth_core(p, k)
    folds = _fold_partners(p, q)
    payload = (0,)

    # Fold: remainder ranks contribute to their core partner.
    for core, folded in folds.items():
        programs[core].add_step(
            [RecvOp(peer=f, blocks=payload, reduce=True) for f in folded]
        )
        for f in folded:
            programs[f].add(SendOp(peer=core, blocks=payload))

    # Mixed-radix butterfly on the core.
    stride = 1
    for radix in radix_schedule(q, k):
        for rank in range(q):
            partners = _butterfly_groups(rank, stride, radix)
            ops: List[Op] = [SendOp(peer=t, blocks=payload) for t in partners]
            ops += [RecvOp(peer=t, blocks=payload, reduce=True) for t in partners]
            programs[rank].add_step(ops)
        stride *= radix

    # Unfold: core partners return the final result.
    for core, folded in folds.items():
        programs[core].add_step([SendOp(peer=f, blocks=payload) for f in folded])
        for f in folded:
            programs[f].add(RecvOp(peer=core, blocks=payload))

    return Schedule(
        collective="allreduce",
        algorithm="recursive_multiplying" if k != 2 else "recursive_doubling",
        nranks=p,
        nblocks=1,
        programs=programs,
        k=k,
        meta={"core": q, "folded": p - q, "radices": radix_schedule(q, k)},
    )


# ----------------------------------------------------------------------
# Allgather
# ----------------------------------------------------------------------

def recursive_multiplying_allgather(p: int, k: int) -> Schedule:
    """Recursive multiplying allgather (model (6):
    ``α·log_k(p) + β·n·(p-1)/p``).

    Block sets multiply by the round radix each round; folded ranks park
    their block with a core partner up front and receive the complete
    buffer at the end (one extra α + βn on each side, the MPICH
    non-power-of-two trade).
    """
    check_radix(k)
    programs = empty_programs(p)
    q = smooth_core(p, k)
    folds = _fold_partners(p, q)

    # Fold: remainder ranks park their block with the core partner.
    for core, folded in folds.items():
        programs[core].add_step([RecvOp(peer=f, blocks=(f,)) for f in folded])
        for f in folded:
            programs[f].add(SendOp(peer=core, blocks=(f,)))

    # Track each core rank's accumulated block set through the butterfly so
    # receive ops can name exactly the blocks their partner holds.
    sets: List[Tuple[int, ...]] = [
        tuple(sorted([c] + folds.get(c, []))) for c in range(q)
    ]
    stride = 1
    for radix in radix_schedule(q, k):
        new_sets: List[Tuple[int, ...]] = list(sets)
        for rank in range(q):
            partners = _butterfly_groups(rank, stride, radix)
            ops: List[Op] = [SendOp(peer=t, blocks=sets[rank]) for t in partners]
            ops += [RecvOp(peer=t, blocks=sets[t]) for t in partners]
            programs[rank].add_step(ops)
            merged = set(sets[rank])
            for t in partners:
                merged.update(sets[t])
            new_sets[rank] = tuple(sorted(merged))
        sets = new_sets
        stride *= radix

    # Unfold: folded ranks receive the assembled buffer.  Each folded rank
    # kept its own block locally (sending is non-destructive), so the core
    # partner omits it — a small bandwidth saving, and essential for the
    # reduce-scatter dual: re-delivering a block the receiver contributed
    # would double-count that contribution under time reversal.
    every = tuple(range(p))
    for core, folded in folds.items():
        if sets[core] != every:
            raise ScheduleError(
                f"internal error: core rank {core} holds {sets[core]}"
            )
        programs[core].add_step(
            [
                SendOp(peer=f, blocks=tuple(b for b in every if b != f))
                for f in folded
            ]
        )
        for f in folded:
            programs[f].add(
                RecvOp(peer=core, blocks=tuple(b for b in every if b != f))
            )

    return Schedule(
        collective="allgather",
        algorithm="recursive_multiplying" if k != 2 else "recursive_doubling",
        nranks=p,
        nblocks=p,
        programs=programs,
        k=k,
        meta={"core": q, "folded": p - q, "radices": radix_schedule(q, k)},
    )


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
