"""Deterministic NumPy executor for collective schedules.

:func:`execute` runs a schedule's bound step tuples
(:meth:`~repro.core.schedule.Schedule.bind`) under the cooperative
lockstep loop (:func:`repro.compile.run_compiled_lockstep`), giving real
data movement with nonblocking-send snapshot semantics.  The one
pipeline from a request to checked buffers — build, make inputs, run
either backend, check against the NumPy reference — is
:func:`repro.execute`, the quickest way to see an algorithm move actual
bytes:

>>> import numpy as np, repro
>>> out = repro.execute("allreduce", "recursive_multiplying", p=9, k=3,
...                     count=17)
>>> bool(np.array_equal(out.buffers[0], out.expected[0]))
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..compile import run_compiled_lockstep
from ..core.schedule import Schedule
from ..errors import ExecutionError
from ..faults.plan import FaultPlan
from ..obs import Obs, get_obs
from .buffers import (
    buffer_count,
    check_outputs,
    initial_buffers,
    reference_result,
)
from .ops import SUM, ReduceOp

__all__ = ["execute", "CollectiveRun", "BACKENDS"]

#: Execution backends: the lockstep loop here, or one thread per rank
#: (:mod:`repro.runtime.threaded`).
BACKENDS = ("lockstep", "threaded")

#: The threaded backend's deadlock timeout, in seconds, when none is given.
_TIMEOUT = 30.0


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

    The schedule is bound to the block map (``schedule.bind``, memoised
    on the schedule per block geometry: no hash, no compiled artifact)
    and run by the tight lockstep loop; results are bit-identical to the
    op-by-op reference interpreter the differential suite keeps as its
    oracle (``tests/oracle.py``).
    """
    count = buffer_count(schedule, buffers)
    if block_map is None:
        block_map = schedule.block_map(count)
    elif block_map.total != count:
        raise ExecutionError(
            f"block map covers {block_map.total} elements but buffers "
            f"hold {count}"
        )
    o = get_obs(obs)
    bound = schedule.bind(block_map)
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
    """Everything :func:`repro.execute` produced, for inspection."""

    schedule: Schedule
    inputs: List[np.ndarray]
    buffers: List[np.ndarray]
    expected: Dict[int, np.ndarray]


def _check_backend(
    backend: str, *, timeout: Optional[float], faults: Optional[FaultPlan]
) -> None:
    """Refuse a ``backend`` that is not one of :data:`BACKENDS`, and
    ``faults`` or any ``timeout`` on the lockstep one (it has no wire to
    lose messages on and cannot deadlock on a peer)."""
    if backend not in BACKENDS:
        raise ExecutionError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "lockstep":
        if faults is not None:
            raise ExecutionError(
                "faults require backend='threaded' (the lockstep engine "
                "has no wire to lose messages on)"
            )
        if timeout is not None:
            raise ExecutionError(
                "timeout applies only to backend='threaded'"
            )


def _run_checked(
    schedule: Schedule,
    inputs: List[np.ndarray],
    count: int,
    *,
    backend: str,
    op: ReduceOp,
    dtype: np.dtype,
    check: bool,
    rtol: float,
    atol: float,
    timeout: Optional[float],
    faults: Optional[FaultPlan],
    detector=None,
    obs: Optional[Obs] = None,
) -> CollectiveRun:
    """Lay ``inputs`` into buffers, run ``schedule`` over them on
    ``backend``, and check them against the NumPy reference (when
    ``check``): the one round of :func:`repro.execute` and of every
    :func:`repro.recovery.execute_with_recovery` round.  The threaded
    backend waits :data:`_TIMEOUT` seconds when ``timeout`` is None."""
    buffers = initial_buffers(schedule, inputs, count, dtype=dtype)
    if backend == "lockstep":
        execute(schedule, buffers, op=op, obs=obs)
    else:
        # Deferred: one thread per rank (and its lossy channels) is the
        # opt-in backend, so build/simulate/lockstep never load it.
        from .threaded import execute_threaded

        execute_threaded(
            schedule, buffers, op=op,
            timeout=_TIMEOUT if timeout is None else timeout,
            faults=faults, detector=detector,
        )
    expected = reference_result(
        schedule.collective, inputs, count, op=op, root=schedule.root or 0
    )
    if check:
        check_outputs(schedule, buffers, expected, count, rtol=rtol, atol=atol)
    return CollectiveRun(
        schedule=schedule, inputs=inputs, buffers=buffers, expected=expected
    )
