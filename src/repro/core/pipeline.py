"""Pipelined (segmented) collectives: the chain broadcast.

The paper's generalization story is about exposing a structural parameter
(the radix) that classic algorithms fix.  Pipelining is the *other*
classic tunable the related work leans on (Awan et al.'s pipelined bcast
for deep learning, §VII): split the buffer into ``segments`` chunks and
stream them down a chain, so the whole chain works concurrently on
different segments.  For very large broadcasts the chain is
bandwidth-optimal: total cost ``(S + p - 2)·(α + β·n/S)``, minimized at
``S* = √(n·β·(p-2)/α)`` — another knob/size trade exactly like the radix,
and the segment-count sweep mirrors the paper's Fig. 8 methodology
(``benchmarks/bench_pipeline_segments.py``).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ScheduleError
from .primitives import check_root, expand_messages
from .schedule import Schedule

__all__ = ["chain_bcast", "optimal_segments"]


def chain_bcast(p: int, segments: int, *, root: int = 0) -> Schedule:
    """Segmented chain broadcast.

    The ranks form a line (in relative order from the root); each segment
    flows down the chain one hop per step, with every rank forwarding
    segment ``s`` while receiving segment ``s + 1`` — steady-state
    bandwidth on every link simultaneously.

    ``segments`` plays the role the radix plays for the paper's kernels:
    more segments hide the chain's ``p - 2`` forwarding latencies behind
    smaller per-hop transfers, at the cost of ``S`` extra message
    latencies.

    Each message is segment ``s`` on the link from relative rank ``x``
    to ``x + 1``: the sender posts it in its step ``s + 1`` (the root
    streams one segment per step), the receiver in its step ``s`` (the
    first receive is a step of its own) after its own send, so a rank
    double-buffers — the receive for segment ``s + 1`` is already posted
    while it forwards ``s``, the overlap that gives the pipeline its
    ``(S + p - 2)``-step steady state.
    """
    check_root(root, p)
    if segments < 1:
        raise ScheduleError(f"segments must be >= 1, got {segments}")
    x = np.repeat(np.arange(p - 1), segments)
    seg = np.tile(np.arange(segments), p - 1)
    columns = expand_messages(
        p, (x + root) % p, (x + 1 + root) % p, (seg + 1, seg),
        (0 * seg, 0 * seg + 1), 0 * seg + 1, seg,
    )
    return Schedule.from_columns(
        "bcast", "chain" if segments == 1 else "pipelined_chain", p,
        segments, columns, root=root, k=segments,
        meta={"segments": segments},
    )


def optimal_segments(nbytes: float, p: int, alpha: float, beta: float) -> int:
    """Closed-form optimal segment count ``S* = √(n·β·(p-2)/α)``.

    Derived by minimizing ``(S + p - 2)(α + βn/S)`` over ``S``; clamped to
    ``[1, nbytes]`` (a segment must carry at least a byte).

    >>> optimal_segments(0, 8, 1e-6, 1e-9)
    1
    """
    if p < 1:
        raise ScheduleError(f"p must be >= 1, got {p}")
    if nbytes < 0 or alpha <= 0 or beta < 0:
        raise ScheduleError("need nbytes >= 0, alpha > 0, beta >= 0")
    if p <= 2 or nbytes == 0:
        return 1
    s = math.sqrt(nbytes * beta * (p - 2) / alpha)
    return max(1, min(int(round(s)), int(nbytes) or 1))
