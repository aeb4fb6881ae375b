"""Shared building blocks for collective schedule constructors.

The algorithm modules (:mod:`repro.core.knomial`, :mod:`repro.core.recursive`,
:mod:`repro.core.ring`) all need the same small toolbox: relative-rank
arithmetic for rooted trees, radix validation, schedule concatenation for
composite algorithms (allgather = gather + bcast, allreduce =
reduce-scatter + allgather, ...), and the time-reversal *dualization* that
turns any tree-structured allgather into a reduce-scatter.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ScheduleError
from .schedule import CopyOp, Op, RankProgram, RecvOp, Schedule, SendOp

__all__ = [
    "check_radix",
    "check_root",
    "relative_rank",
    "absolute_rank",
    "all_blocks",
    "empty_programs",
    "concat_programs",
    "compose",
    "shared_phase",
    "sharing_phases",
    "dualize_allgather",
    "largest_power_leq",
    "ilog",
]


def check_radix(k: int, minimum: int = 2) -> int:
    """Validate a radix parameter; returns it for chaining."""
    if not isinstance(k, int):
        raise ScheduleError(f"radix k must be an int, got {type(k).__name__}")
    if k < minimum:
        raise ScheduleError(f"radix k must be >= {minimum}, got {k}")
    return k


def check_root(root: int, p: int) -> int:
    """Validate a root rank; returns it for chaining."""
    if not 0 <= root < p:
        raise ScheduleError(f"root {root} out of range for p={p}")
    return root


def relative_rank(rank: int, root: int, p: int) -> int:
    """Rank relative to the root (root becomes 0), MPICH-style."""
    return (rank - root + p) % p


def absolute_rank(relr: int, root: int, p: int) -> int:
    """Inverse of :func:`relative_rank`."""
    return (relr + root) % p


def all_blocks(nblocks: int) -> Tuple[int, ...]:
    """Tuple of every block id — whole-buffer sends/recvs."""
    return tuple(range(nblocks))


def empty_programs(p: int) -> List[RankProgram]:
    """One empty program per rank."""
    return [RankProgram(rank=r) for r in range(p)]


def concat_programs(
    first: Sequence[RankProgram], second: Sequence[RankProgram]
) -> List[RankProgram]:
    """Sequential composition: every rank runs ``first`` then ``second``.

    Correct because the runner's per-channel FIFO matching is global across
    the concatenated program, and each phase is internally matched — phase
    boundaries therefore never interleave messages across phases for any
    (src, dst) pair out of order.
    """
    if len(first) != len(second):
        raise ScheduleError(
            f"cannot concatenate programs for {len(first)} and "
            f"{len(second)} ranks"
        )
    return [
        RankProgram(rank=a.rank, steps=[*a.steps, *b.steps])
        for a, b in zip(first, second)
    ]


def compose(
    collective: str,
    algorithm: str,
    phases: Sequence[Schedule],
    *,
    root: Optional[int] = None,
    k: Optional[int] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Schedule:
    """Build a composite schedule from sequential phases.

    All phases must agree on ``nranks`` and ``nblocks``.  Phase names are
    recorded in the composite's ``meta`` for reporting.
    """
    if not phases:
        raise ScheduleError("compose needs at least one phase")
    p = phases[0].nranks
    nb = phases[0].nblocks
    for ph in phases[1:]:
        if ph.nranks != p or ph.nblocks != nb:
            raise ScheduleError(
                f"phase {ph.describe()} disagrees on geometry with "
                f"{phases[0].describe()}"
            )
    programs = phases[0].programs
    for ph in phases[1:]:
        programs = concat_programs(programs, ph.programs)
    full_meta: Dict[str, object] = {"phases": [ph.describe() for ph in phases]}
    if meta:
        full_meta.update(meta)
    return Schedule(
        collective=collective,
        algorithm=algorithm,
        nranks=p,
        nblocks=nb,
        programs=programs,
        root=root,
        k=k,
        meta=full_meta,
    )


#: The phase cache of whichever :class:`~repro.core.cache.ScheduleCache`
#: is running a builder in this context (``None``: nobody is).
_phase_cache: ContextVar[Optional[object]] = ContextVar(
    "repro_phase_cache", default=None
)


@contextmanager
def sharing_phases(cache) -> Iterator[None]:
    """Route :func:`shared_phase` through ``cache`` (a
    :class:`~repro.core.cache.ContentCache`) for the body's builds."""
    token = _phase_cache.set(cache)
    try:
        yield
    finally:
        _phase_cache.reset(token)


def shared_phase(
    builder: Callable[..., Schedule], *args: int, **kwargs: int
) -> Schedule:
    """The sub-schedule ``builder(*args, **kwargs)`` of a composite.

    An allreduce *is* its allgather plus that allgather's dual, a
    scatter-allgather bcast shares its allgather with both: schedules
    are immutable, so composites built through one
    :class:`~repro.core.cache.ScheduleCache` take each distinct phase
    from its ``phases`` cache instead of rebuilding it.  Called outside
    such a build, this is the plain builder call.
    """
    cache = _phase_cache.get()
    if cache is None:
        return builder(*args, **kwargs)
    key = (builder, args, tuple(sorted(kwargs.items())))
    return cache.get_or_make(key, lambda: builder(*args, **kwargs))[0]


def dualize_allgather(allgather: Schedule, algorithm: str) -> Schedule:
    """Time-reverse an allgather into its dual reduce-scatter.

    In an allgather, every block travels a tree from its owner to all other
    ranks, and each rank receives each block exactly once.  Reversing time
    and flipping every ``SendOp`` into a reducing ``RecvOp`` (and vice
    versa) turns those distribution trees into reduction trees rooted at
    each block's owner: a communication-identical reduce-scatter.  This is
    the classic ring-allreduce duality (Patarasuk & Yuan) applied
    mechanically at the IR level; it gives us reduce-scatter variants of
    the classic ring, the k-ring, and recursive multiplying for free, with
    correctness guaranteed by the symbolic validator.
    """
    if allgather.collective != "allgather":
        raise ScheduleError(
            f"dualize_allgather expects an allgather schedule, got "
            f"{allgather.collective}"
        )
    # Structural precondition: each block must reach each rank exactly once,
    # and never return to the rank that contributed it.  (Re-receipt would
    # reverse into a double-counted reduction.)
    for prog in allgather.programs:
        seen = {prog.rank}  # a rank "has" its own block from the start
        for _, op in prog.iter_ops():
            if isinstance(op, RecvOp):
                for b in op.blocks:
                    if b in seen:
                        raise ScheduleError(
                            f"cannot dualize {allgather.describe()}: rank "
                            f"{prog.rank} receives block {b} more than once"
                        )
                    seen.add(b)
    # The dual names its blocks through tuples of its own, aliased among
    # its ops as the allgather's are among its: the allgather may be a
    # shared phase that sits beside this dual in one composite, and a
    # composite pickles (store entries, wire blobs) to the same bytes
    # whether or not its phases were shared.
    own: Dict[int, Tuple[int, ...]] = {}

    def own_blocks(blocks: Tuple[int, ...]) -> Tuple[int, ...]:
        twin = own.get(id(blocks))
        if twin is None:
            twin = own[id(blocks)] = (*blocks,)
        return twin

    programs: List[RankProgram] = []
    for prog in allgather.programs:
        dual = RankProgram(rank=prog.rank)
        for step in reversed(prog.steps):
            ops: List[Op] = []
            # Receives must be flipped to sends first within a step so the
            # runner snapshots them before any same-step reduction applies;
            # op ordering within a step has no timing meaning otherwise.
            for op in step.ops:
                if isinstance(op, RecvOp):
                    if op.reduce:
                        raise ScheduleError(
                            "cannot dualize an allgather containing "
                            "reducing receives"
                        )
                    ops.append(SendOp(peer=op.peer, blocks=own_blocks(op.blocks)))
            for op in step.ops:
                if isinstance(op, SendOp):
                    ops.append(
                        RecvOp(
                            peer=op.peer,
                            blocks=own_blocks(op.blocks),
                            reduce=True,
                        )
                    )
                elif isinstance(op, CopyOp):
                    raise ScheduleError(
                        "cannot dualize an allgather containing local copies"
                    )
            dual.add_step(ops)
        programs.append(dual)
    return Schedule(
        collective="reduce_scatter",
        algorithm=algorithm,
        nranks=allgather.nranks,
        nblocks=allgather.nblocks,
        programs=programs,
        root=None,
        k=allgather.k,
        meta={"dual_of": allgather.describe()},
    )


def largest_power_leq(k: int, p: int) -> Tuple[int, int]:
    """Largest ``k**m <= p``; returns ``(k**m, m)``.

    >>> largest_power_leq(3, 10)
    (9, 2)
    >>> largest_power_leq(2, 8)
    (8, 3)
    """
    check_radix(k)
    if p < 1:
        raise ScheduleError(f"p must be >= 1, got {p}")
    q, m = 1, 0
    while q * k <= p:
        q *= k
        m += 1
    return q, m


def ilog(k: int, p: int) -> int:
    """Ceiling of ``log_k(p)`` for integers (number of tree/exchange rounds).

    >>> ilog(2, 8)
    3
    >>> ilog(3, 10)
    3
    """
    check_radix(k)
    rounds, reach = 0, 1
    while reach < p:
        reach *= k
        rounds += 1
    return rounds
