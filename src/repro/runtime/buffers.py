"""Buffer setup and reference results for data execution.

A collective on ``p`` ranks over ``count`` total elements uses, per rank, a
working array of ``count`` elements partitioned into the schedule's blocks
(element-granularity :class:`~repro.core.blocks.BlockMap`).  This module
knows, for each collective:

* what the *inputs* look like (full vectors for reduction collectives,
  one block per rank for gather-family, the root's buffer for bcast/scatter),
* how to lay inputs into pre-execution working arrays, with a deterministic
  garbage fill in every slot the collective does not define — so a schedule
  that reads data it was never sent produces loud mismatches rather than
  silently-correct zeros, and
* the NumPy *reference* result (the oracle the executor output is checked
  against).

Message-size convention (matches the paper's cost models): ``count`` is the
**total** buffer size; gather-family ranks each contribute one
``count/p``-sized block.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.blocks import BlockMap
from ..core.schedule import Schedule
from ..errors import ExecutionError
from .ops import SUM, ReduceOp

__all__ = [
    "make_inputs",
    "initial_buffers",
    "reference_result",
    "checked_slots",
    "check_outputs",
]

#: Fill value for undefined buffer slots; chosen to poison reductions and
#: comparisons loudly (NaN would be better for floats but breaks int dtypes).
GARBAGE = -(2**31) + 11


def make_inputs(
    collective: str,
    p: int,
    count: int,
    *,
    dtype: np.dtype = np.dtype(np.int64),
    root: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> List[np.ndarray]:
    """Random per-rank input arrays with the right per-collective shapes.

    Reduction inputs are kept small in magnitude so integer sums of
    thousands of ranks cannot overflow and float sums stay exactly
    representable.
    """
    rng = rng or np.random.default_rng(0)
    blocks = BlockMap(count, p)

    def draw(n: int) -> np.ndarray:
        # Exact in floats too; no copy when dtype is the draw's int64.
        return rng.integers(0, 100, size=n).astype(dtype, copy=False)

    if collective in ("bcast", "scatter"):
        return [
            draw(count) if r == root else np.empty(0, dtype=dtype)
            for r in range(p)
        ]
    if collective in ("gather", "allgather"):
        return [draw(blocks.size_of(r)) for r in range(p)]
    if collective in ("reduce", "allreduce", "reduce_scatter"):
        return [draw(count) for r in range(p)]
    if collective == "alltoall":
        # count spans the p² block space; rank r's input is its row.
        row = BlockMap(count, p * p)
        return [
            draw(sum(row.size_of(r * p + d) for d in range(p)))
            for r in range(p)
        ]
    raise ExecutionError(f"unknown collective {collective!r}")


def initial_buffers(
    schedule: Schedule,
    inputs: Sequence[np.ndarray],
    count: int,
    *,
    dtype: np.dtype = np.dtype(np.int64),
) -> List[np.ndarray]:
    """Lay ``inputs`` into per-rank working arrays of ``count`` elements.

    Undefined slots get the :data:`GARBAGE` fill (clipped into the dtype's
    range for narrow types); a buffer the inputs overwrite whole (every
    reduce-family rank, the bcast/scatter root) gets no fill at all.
    """
    p = schedule.nranks
    coll = schedule.collective
    root = schedule.root
    blocks = BlockMap(count, p)
    garbage = np.array(GARBAGE).astype(dtype)
    if coll in ("reduce", "allreduce", "reduce_scatter"):
        whole = range(p)
    elif coll in ("bcast", "scatter"):
        whole = (root,)
    else:
        whole = ()
    bufs = [
        np.empty(count, dtype=dtype) if r in whole
        else np.full(count, garbage, dtype=dtype)
        for r in range(p)
    ]

    if coll in ("bcast", "scatter"):
        assert root is not None
        if len(inputs[root]) != count:
            raise ExecutionError(
                f"{coll} root input has {len(inputs[root])} elements, "
                f"expected {count}"
            )
        bufs[root][:] = inputs[root]
    elif coll in ("gather", "allgather"):
        for r in range(p):
            start, stop = blocks.range_of(r)
            if len(inputs[r]) != stop - start:
                raise ExecutionError(
                    f"{coll} rank {r} input has {len(inputs[r])} elements, "
                    f"expected block size {stop - start}"
                )
            bufs[r][start:stop] = inputs[r]
    elif coll in ("reduce", "allreduce", "reduce_scatter"):
        for r in range(p):
            if len(inputs[r]) != count:
                raise ExecutionError(
                    f"{coll} rank {r} input has {len(inputs[r])} elements, "
                    f"expected {count}"
                )
            bufs[r][:] = inputs[r]
    elif coll == "alltoall":
        grid = BlockMap(count, p * p)
        for r in range(p):
            pos = 0
            for d in range(p):
                start, stop = grid.range_of(r * p + d)
                size = stop - start
                bufs[r][start:stop] = inputs[r][pos : pos + size]
                pos += size
            if pos != len(inputs[r]):
                raise ExecutionError(
                    f"alltoall rank {r} input has {len(inputs[r])} "
                    f"elements, expected {pos}"
                )
    else:
        raise ExecutionError(f"unknown collective {coll!r}")
    return bufs


def buffer_count(schedule: Schedule, buffers: Sequence[np.ndarray]) -> int:
    """The length every one of ``buffers`` has: both backends refuse
    anything but one buffer per rank, all of one length."""
    if len(buffers) != schedule.nranks:
        raise ExecutionError(
            f"need {schedule.nranks} buffers, got {len(buffers)}"
        )
    count = len(buffers[0])
    for r, buf in enumerate(buffers):
        if len(buf) != count:
            raise ExecutionError(
                f"rank {r} buffer has {len(buf)} elements, rank 0 has {count}"
            )
    return count


def reference_result(
    collective: str,
    inputs: Sequence[np.ndarray],
    count: int,
    *,
    op: ReduceOp = SUM,
    root: int = 0,
) -> Dict[int, np.ndarray]:
    """NumPy oracle: ``rank -> expected full buffer`` for defined ranks.

    Only the ranks the collective defines output for appear as keys (e.g.
    only the root for gather/reduce).
    """
    p = len(inputs)
    blocks = BlockMap(count, p)
    if collective == "bcast":
        return {r: np.asarray(inputs[root]) for r in range(p)}
    if collective == "scatter":
        out = {}
        for r in range(p):
            start, stop = blocks.range_of(r)
            out[r] = np.asarray(inputs[root][start:stop])
        return out
    if collective == "gather":
        return {root: np.concatenate([np.asarray(x) for x in inputs])}
    if collective == "allgather":
        cat = np.concatenate([np.asarray(x) for x in inputs])
        return {r: cat for r in range(p)}
    if collective == "reduce":
        return {root: op.reduce_all(tuple(np.asarray(x) for x in inputs))}
    if collective == "allreduce":
        red = op.reduce_all(tuple(np.asarray(x) for x in inputs))
        return {r: red for r in range(p)}
    if collective == "reduce_scatter":
        red = op.reduce_all(tuple(np.asarray(x) for x in inputs))
        out = {}
        for r in range(p):
            start, stop = blocks.range_of(r)
            out[r] = red[start:stop]
        return out
    if collective == "alltoall":
        # expected[d] = concatenation over sources of block (s, d)
        grid = BlockMap(count, p * p)
        out = {}
        for d in range(p):
            parts = []
            for s in range(p):
                # block (s, d)'s slice within rank s's row-shaped input
                offset = sum(
                    grid.size_of(s * p + dd) for dd in range(d)
                )
                size = grid.size_of(s * p + d)
                parts.append(np.asarray(inputs[s])[offset : offset + size])
            out[d] = np.concatenate(parts) if parts else np.empty(0)
        return out
    raise ExecutionError(f"unknown collective {collective!r}")


def checked_slots(collective: str, p: int, root: int = 0) -> Dict[int, slice]:
    """Which part of each defined rank's buffer the contract constrains.

    * whole buffer for bcast/gather/allgather/reduce/allreduce outputs,
    * rank ``r``'s own block for scatter/reduce_scatter.

    Returned slices index the *expected* array from
    :func:`reference_result`, which is already narrowed for scatter-family.
    """
    if collective in ("bcast", "allgather", "allreduce"):
        return {r: slice(None) for r in range(p)}
    if collective in ("gather", "reduce"):
        return {root: slice(None)}
    if collective in ("scatter", "reduce_scatter", "alltoall"):
        return {r: slice(None) for r in range(p)}
    raise ExecutionError(f"unknown collective {collective!r}")


def check_outputs(
    schedule: Schedule,
    buffers: Sequence[np.ndarray],
    expected: Dict[int, np.ndarray],
    count: int,
    *,
    rtol: float = 0.0,
    atol: float = 0.0,
) -> None:
    """Compare executor output against the oracle; raises on mismatch.

    For scatter-family collectives the comparison is restricted to each
    rank's own block (other slots are unspecified).  Tolerances default to
    exact because the test suite uses integer payloads; float callers pass
    small ``rtol``/``atol`` to absorb reduction-order rounding.
    """
    p = schedule.nranks
    coll = schedule.collective
    blocks = BlockMap(count, p)
    for rank, exp in expected.items():
        if coll in ("scatter", "reduce_scatter"):
            start, stop = blocks.range_of(rank)
            got = buffers[rank][start:stop]
        elif coll == "alltoall":
            grid = BlockMap(count, p * p)
            got = np.concatenate(
                [
                    buffers[rank][slice(*grid.range_of(s * p + rank))]
                    for s in range(p)
                ]
            ) if p else np.empty(0)
        else:
            got = buffers[rank]
        if rtol == 0.0 and atol == 0.0:
            okay = np.array_equal(got, exp)
        else:
            okay = np.allclose(got, exp, rtol=rtol, atol=atol)
        if not okay:
            bad = np.flatnonzero(~np.isclose(got, exp, rtol=rtol, atol=atol))
            where = bad[:5].tolist()
            raise ExecutionError(
                f"{schedule.describe()}: rank {rank} output mismatch at "
                f"elements {where} (got {got[bad[:5]].tolist()}, expected "
                f"{np.asarray(exp)[bad[:5]].tolist()})"
            )
