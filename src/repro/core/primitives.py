"""Shared building blocks for collective schedule constructors.

The algorithm modules (:mod:`repro.core.knomial`, :mod:`repro.core.recursive`,
:mod:`repro.core.ring`, ...) all need the same small toolbox: radix and
root validation, the expansion that turns a builder's messages into
program-ordered columns (:func:`expand_messages`), schedule
concatenation for composite algorithms (allgather = gather + bcast,
allreduce = reduce-scatter + allgather, ...), and the one time reversal
that turns any tree-structured allgather into a reduce-scatter (its
*dual*) and a tree's bcast into its reduce.  All of them are whole-array
transforms of :class:`~repro.core.schedule.Columns`: no op object is made
or walked.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..errors import ScheduleError
from .schedule import (
    OP_COPY,
    OP_RECV,
    OP_REDUCE_RECV,
    OP_SEND,
    Columns,
    Schedule,
    assemble,
    spans,
)

__all__ = [
    "check_radix",
    "check_root",
    "expand_messages",
    "compose",
    "shared_phase",
    "sharing_phases",
    "dualize_allgather",
    "time_reversed",
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


def expand_messages(
    p: int,
    src: np.ndarray,
    dst: np.ndarray,
    slot: Tuple[np.ndarray, np.ndarray],
    pos: Tuple[np.ndarray, np.ndarray],
    nblk: np.ndarray,
    blocks: np.ndarray,
    recv: Union[int, np.ndarray] = OP_RECV,
) -> Columns:
    """Columns of point-to-point messages — the expansion every builder
    ends in.

    Message ``m`` carries the next ``nblk[m]`` ids of ``blocks`` (every
    message's ids, in message order) from rank ``src[m]`` to
    ``dst[m]``: a send on the sender at step slot ``slot[0][m]`` and
    position ``pos[0][m]``, and a receive — op code ``recv``, or one
    per message — on the receiver at ``slot[1][m]``, ``pos[1][m]``.
    The ops go into program order: rank-major, a rank's slots
    ascending, a slot's ops by position.  The ops of one (rank, slot)
    are one step, so a slot no op fills is no step.
    """
    n = len(src)
    owner, at = np.concatenate((src, dst)), np.concatenate(slot)
    order = np.lexsort((np.concatenate(pos), at, owner))
    owner, at = owner[order], at[order]
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = (owner[1:] != owner[:-1]) | (at[1:] != at[:-1])
    starts = np.flatnonzero(opens)
    first, size = np.tile(np.cumsum(nblk) - nblk, 2), np.tile(nblk, 2)
    first, size = first[order], size[order]
    return assemble(
        np.concatenate((np.full(n, OP_SEND), np.broadcast_to(recv, n)))[order],
        np.concatenate((dst, src))[order],
        size,
        blocks[spans(first, first + size)],
        np.diff(np.append(starts, len(order))),
        np.bincount(owner[starts], minlength=p),
    )


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
    recorded in the composite's ``meta`` for reporting.  Every rank runs
    its program of each phase in turn; that is correct because FIFO
    matching is global across the concatenated program and each phase
    is matched within itself, so no (src, dst) pair's messages
    interleave across a phase boundary out of order.
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
    # Each per-rank table of the phases, stacked, is read
    # (rank, phase)-major.
    cols = [ph.columns() for ph in phases]
    turns = (np.arange(len(cols)) * p + np.arange(p)[:, None]).ravel()

    def in_turn(ptrs: List[np.ndarray]) -> np.ndarray:
        base = np.cumsum([0] + [int(ptr[-1]) for ptr in ptrs])
        stacked = np.append(
            np.concatenate([ptr[:-1] + b for ptr, b in zip(ptrs, base)]),
            base[-1],
        )
        return spans(stacked[turns], stacked[turns + 1])

    ops = in_turn([c.op_ptr for c in cols])
    blocks = in_turn([c.seg_bounds[c.op_ptr] for c in cols])
    steps = in_turn([c.step_ptr - np.arange(p + 1) for c in cols])
    merged = assemble(
        np.concatenate([c.kinds for c in cols])[ops],
        np.concatenate([c.peers for c in cols])[ops],
        np.concatenate([np.diff(c.seg_bounds) for c in cols])[ops],
        np.concatenate([c.seg_blocks for c in cols])[blocks],
        np.concatenate([c.step_lens() for c in cols])[steps],
        sum(c.nsteps() for c in cols),
    )
    full_meta: Dict[str, object] = {"phases": [ph.describe() for ph in phases]}
    if meta:
        full_meta.update(meta)
    return Schedule.from_columns(
        collective, algorithm, p, nb, merged, root=root, k=k, meta=full_meta
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
    and flipping every send into a reducing receive (and vice
    versa) turns those distribution trees into reduction trees rooted at
    each block's owner: a communication-identical reduce-scatter.  This is
    the classic ring-allreduce duality (Patarasuk & Yuan), applied by
    :func:`time_reversed` once checked; it gives us reduce-scatter
    variants of the classic ring, the k-ring, and recursive multiplying
    for free, with correctness guaranteed by the symbolic validator.
    """
    if allgather.collective != "allgather":
        raise ScheduleError(
            f"dualize_allgather expects an allgather schedule, got "
            f"{allgather.collective}"
        )
    cols = allgather.columns()
    kinds, p = cols.kinds, allgather.nranks
    rank, (step, _) = cols.ranks(), cols.positions()
    # Structural precondition: each block must reach each rank exactly once,
    # and never return to the rank that contributed it.  (Re-receipt would
    # reverse into a double-counted reduction.)  A rank "has" its own
    # block from the start: those entries lead, the received ones follow
    # in program order, and the first repeated (rank, block) is named.
    recvs = np.flatnonzero((kinds == OP_RECV) | (kinds == OP_REDUCE_RECV))
    got = spans(cols.seg_bounds[recvs], cols.seg_bounds[recvs + 1])
    width = max(p, allgather.nblocks)
    nblk = np.diff(cols.seg_bounds)
    who = np.concatenate((np.arange(p), np.repeat(rank[recvs], nblk[recvs])))
    what = np.concatenate((np.arange(p), cols.seg_blocks[got]))
    _, first = np.unique(who * width + what, return_index=True)
    again = np.ones(len(who), dtype=bool)
    again[first] = False
    if again.any():
        j = int(np.argmax(again))
        raise ScheduleError(
            f"cannot dualize {allgather.describe()}: rank "
            f"{who[j]} receives block {what[j]} more than once"
        )
    # The first rank holding a reducing receive or a copy refuses, at
    # the last step that holds one (the dual walks steps backwards),
    # naming a reducing receive before a copy.
    bad = np.flatnonzero((kinds == OP_REDUCE_RECV) | (kinds == OP_COPY))
    if len(bad):
        bad = bad[rank[bad] == rank[bad].min()]
        bad = bad[step[bad] == step[bad].max()]
        if (kinds[bad] == OP_REDUCE_RECV).any():
            raise ScheduleError(
                "cannot dualize an allgather containing reducing receives"
            )
        raise ScheduleError(
            "cannot dualize an allgather containing local copies"
        )
    return Schedule.from_columns(
        "reduce_scatter",
        algorithm,
        allgather.nranks,
        allgather.nblocks,
        time_reversed(cols, reduce=True),
        k=allgather.k,
        meta={"dual_of": allgather.describe()},
    )


def time_reversed(cols: Columns, *, reduce: bool) -> Columns:
    """``cols`` (sends and plain receives) with every rank's steps run
    backwards: a receive becomes a send of its blocks, leading its step
    so the runner snapshots it before any same-step reduction applies;
    a send becomes a receive, reducing when ``reduce``.  A distribution
    tree run so is the reduction (or collection) over the same tree."""
    recv = cols.kinds == OP_RECV
    order = np.lexsort((~recv, -cols.positions()[0], cols.ranks()))
    nsteps = cols.nsteps()
    owner = np.repeat(np.arange(len(nsteps)), nsteps)
    return assemble(
        np.where(recv, OP_SEND, OP_REDUCE_RECV if reduce else OP_RECV)[order],
        cols.peers[order],
        np.diff(cols.seg_bounds)[order],
        cols.gather(order),
        cols.step_lens()[np.lexsort((-np.arange(len(owner)), owner))],
        nsteps,
    )


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
