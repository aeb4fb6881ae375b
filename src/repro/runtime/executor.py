"""Deterministic NumPy executor for collective schedules.

:func:`execute` runs a schedule's compiled tables under the cooperative
lockstep loop (:func:`repro.compile.run_compiled_lockstep`), giving real
data movement with nonblocking-send snapshot semantics.  The
high-level entry point :func:`run_collective` builds, executes, and
checks a collective in one call — the quickest way to see an algorithm move actual bytes:

>>> import numpy as np
>>> from repro.runtime.executor import run_collective
>>> out = run_collective("allreduce", "recursive_multiplying", p=9, k=3,
...                      count=17)
>>> bool(np.array_equal(out.buffers[0], out.expected[0]))
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..compile import get_or_compile, run_compiled_lockstep
from ..core.registry import build_schedule
from ..core.schedule import Schedule
from ..errors import ExecutionError
from ..obs import Obs, get_obs
from .buffers import (
    check_outputs,
    initial_buffers,
    make_inputs,
    reference_result,
)
from .ops import SUM, ReduceOp

__all__ = ["execute", "run_collective", "CollectiveRun"]


def execute(
    schedule: Schedule,
    buffers: List[np.ndarray],
    *,
    op: ReduceOp = SUM,
    block_map=None,
    obs: Optional[Obs] = None,
) -> List[np.ndarray]:
    """Execute ``schedule`` in place over per-rank ``buffers``.

    Buffers must all have the same length; by default the schedule's
    near-equal block partition is applied to that length.  Passing an
    explicit ``block_map`` (see
    :class:`~repro.core.blocks.ExplicitBlockMap`) runs the same schedule
    over caller-chosen block sizes — the v-variant collectives
    (gatherv/scatterv) are exactly tree schedules under an uneven map.
    Returns the (mutated) buffer list.

    The schedule is lowered to flat per-rank tables (:mod:`repro.compile`,
    cached by fingerprint) and run by the tight lockstep loop; results
    are bit-identical to the op-by-op reference interpreter the
    differential suite keeps as its oracle (``tests/oracle.py``).
    """
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
    if block_map is None:
        block_map = schedule.block_map(count)
    elif block_map.nblocks != schedule.nblocks:
        raise ExecutionError(
            f"block map has {block_map.nblocks} blocks but the schedule "
            f"uses {schedule.nblocks}"
        )
    elif block_map.total != count:
        raise ExecutionError(
            f"block map covers {block_map.total} elements but buffers "
            f"hold {count}"
        )
    o = get_obs(obs)
    bound = get_or_compile(schedule).bind(block_map)
    if o.enabled:
        with o.span(
            "execute", schedule=schedule.describe(), backend="lockstep",
        ):
            moved = run_compiled_lockstep(bound, buffers, op)
        m = o.metrics
        m.counter("repro_executor_runs_total", backend="lockstep").inc()
        m.counter(
            "repro_executor_elements_moved_total", backend="lockstep"
        ).inc(moved)
    else:
        run_compiled_lockstep(bound, buffers, op)
    return buffers


@dataclass
class CollectiveRun:
    """Everything :func:`run_collective` produced, for inspection."""

    schedule: Schedule
    inputs: List[np.ndarray]
    buffers: List[np.ndarray]
    expected: Dict[int, np.ndarray]


def run_collective(
    collective: str,
    algorithm: str,
    p: int,
    count: int,
    *,
    k: Optional[int] = None,
    root: int = 0,
    op: ReduceOp = SUM,
    dtype: np.dtype = np.dtype(np.int64),
    seed: int = 0,
    check: bool = True,
    rtol: float = 0.0,
    atol: float = 0.0,
) -> CollectiveRun:
    """Build a schedule, run it on random data, and check the result.

    This is the end-to-end correctness path the test suite leans on; see
    :mod:`repro.runtime.buffers` for the buffer conventions.
    """
    schedule = build_schedule(collective, algorithm, p, k=k, root=root)
    rng = np.random.default_rng(seed)
    inputs = make_inputs(collective, p, count, dtype=dtype, root=root, rng=rng)
    buffers = initial_buffers(schedule, inputs, count, dtype=dtype)
    execute(schedule, buffers, op=op)
    expected = reference_result(collective, inputs, count, op=op, root=root)
    if check:
        check_outputs(schedule, buffers, expected, count, rtol=rtol, atol=atol)
    return CollectiveRun(
        schedule=schedule, inputs=inputs, buffers=buffers, expected=expected
    )
