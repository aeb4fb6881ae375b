"""Non-generalized baseline algorithms.

These are the comparison points the paper measures against (§VI-B): the
fixed-radix MPICH algorithms, the naïve "linear" algorithms MPICH uses for
some small-communicator cases, and the composite large-message workhorses
(van-de-Geijn scatter-allgather broadcast and Rabenseifner
reduce-scatter-allgather allreduce).

The radix-2 tree and butterfly baselines (binomial, recursive doubling)
live in :mod:`repro.core.knomial` and :mod:`repro.core.recursive` as exact
``k = 2`` specializations of the generalized builders — by construction
there is no drift between a generalized algorithm at its default radix and
its classic counterpart, which is the property paper Fig. 7 checks.
"""

from __future__ import annotations

import numpy as np

from .knomial import knomial_scatter
from .primitives import (
    check_root,
    compose,
    dualize_allgather,
    expand_messages,
    shared_phase,
)
from .recursive import recursive_multiplying_allgather
from .ring import ring_allgather
from .schedule import OP_RECV, OP_REDUCE_RECV, Schedule

__all__ = [
    "linear_bcast",
    "linear_reduce",
    "linear_gather",
    "linear_scatter",
    "scatter_allgather_bcast",
    "reduce_scatter_allgather_allreduce",
    "recursive_halving_reduce_scatter",
]


def _linear(collective: str, p: int, root: int) -> Schedule:
    """The root exchanging one message with every other rank in turn,
    in relative-rank order — one step per message on the root, one on
    the other side.  A bcast or scatter sends from the root, a reduce
    (reducing) or gather to it; a gather or scatter moves the non-root
    rank's own block of ``p``, a bcast or reduce block 0 of one."""
    to_root = collective in ("reduce", "gather")
    own = collective in ("gather", "scatter")
    check_root(root, p)
    leaf = (np.arange(1, p) + root) % p
    turn, once = np.arange(p - 1), 0 * leaf
    hub = once + root
    src, dst = (leaf, hub) if to_root else (hub, leaf)
    slot = (once, turn) if to_root else (turn, once)
    columns = expand_messages(
        p, src, dst, slot, (once, once), once + 1,
        leaf if own else once,
        OP_REDUCE_RECV if collective == "reduce" else OP_RECV,
    )
    return Schedule.from_columns(
        collective, "linear", p, p if own else 1, columns, root=root
    )


def linear_bcast(p: int, *, root: int = 0) -> Schedule:
    """Naïve broadcast: the root sends to every rank sequentially.

    Cost ``(p-1)(α + βn)`` — the paper's §III-B motivating example of what
    tree algorithms beat.  Sequential (one step per destination), so the
    simulator charges full serialization.
    """
    return _linear("bcast", p, root)


def linear_reduce(p: int, *, root: int = 0) -> Schedule:
    """Naïve reduction: the root receives and folds every contribution
    sequentially (``(p-1)(α + (β+γ)n)``)."""
    return _linear("reduce", p, root)


def linear_gather(p: int, *, root: int = 0) -> Schedule:
    """Naïve gather: the root receives each rank's block sequentially."""
    return _linear("gather", p, root)


def linear_scatter(p: int, *, root: int = 0) -> Schedule:
    """Naïve scatter: the root sends each rank its block sequentially."""
    return _linear("scatter", p, root)


def scatter_allgather_bcast(p: int, *, root: int = 0) -> Schedule:
    """Van de Geijn large-message broadcast: binomial scatter + ring
    allgather — MPICH's classic choice above the medium-size cutoff and
    the paper's ``ring`` bcast baseline."""
    scatter = shared_phase(knomial_scatter, p, 2, root=root)
    allgather = ring_allgather(p)
    return compose("bcast", "scatter_allgather", [scatter, allgather], root=root)


def recursive_halving_reduce_scatter(p: int) -> Schedule:
    """Recursive-halving reduce-scatter: the time-reversed dual of the
    recursive doubling allgather (pairwise exchanges of halving extent and
    halving data)."""
    return dualize_allgather(
        shared_phase(recursive_multiplying_allgather, p, 2),
        "recursive_halving",
    )


def reduce_scatter_allgather_allreduce(p: int) -> Schedule:
    """Rabenseifner's allreduce: recursive-halving reduce-scatter followed
    by recursive-doubling allgather — MPICH's large-message allreduce and
    the strongest fixed-radix baseline for paper Fig. 9(d)."""
    rs = shared_phase(recursive_halving_reduce_scatter, p)
    ag = shared_phase(recursive_multiplying_allgather, p, 2)
    return compose("allreduce", "reduce_scatter_allgather", [rs, ag])


def reduce_scatter_gather_reduce(p: int, *, root: int = 0) -> Schedule:
    """Rabenseifner's reduce: recursive-halving reduce-scatter followed by
    a binomial gather to the root — MPICH's large-message MPI_Reduce.

    This is the algorithm a well-tuned production MPI switches to above
    the binomial cutoff; its absence from a selection policy is exactly
    the kind of mis-selection the paper observes in Cray MPI for large
    reduces (Fig. 9a's >4.5× region).
    """
    check_root(root, p)
    rs = shared_phase(recursive_halving_reduce_scatter, p)
    gather = knomial_gather_for_reduce(p, root)
    return compose("reduce", "reduce_scatter_gather", [rs, gather], root=root)


def knomial_gather_for_reduce(p: int, root: int) -> Schedule:
    """Binomial gather phase of Rabenseifner's reduce.

    Identical communication to :func:`repro.core.knomial.knomial_gather`,
    but typed as a ``reduce`` phase: after the reduce-scatter each rank
    holds the fully reduced block that carries its own index, and the
    gather moves those blocks (not raw inputs) to the root.
    """
    from .knomial import knomial_gather  # local import avoids a cycle

    return shared_phase(knomial_gather, p, 2, root=root).relabel(
        collective="reduce",
        algorithm="reduce_scatter_gather",
        k=None,
        meta={"phase": "gather-after-reduce-scatter"},
    )
