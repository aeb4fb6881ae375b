"""Shrink-and-retry execution on real data: the threaded recovery loop.

:func:`execute_with_recovery` wraps the build→run→check pipeline of
:func:`repro.api.execute` in detect→shrink→rebuild→rerun rounds:

1. Build the schedule for the current group (through a
   :class:`~repro.core.cache.ScheduleCache`, so rebuilds after a shrink
   are near-free on repeat failures) and run it.
2. On a :class:`~repro.errors.PartialFailure`, convert the structured
   fault diagnoses into :class:`~repro.recovery.detect.RankFailure`
   notifications.  Every survivor observes the same
   :class:`~repro.errors.PartialFailure` (the transport aggregates the
   per-rank faults into one exception), so "agreeing on the survivor
   set" is sorting the blamed ranks — deterministic by construction,
   no consensus round needed.
3. Apply the :class:`~repro.recovery.policy.RecoveryPolicy`: abort,
   shrink the group, or substitute spares; renumber the fault plan
   accordingly; go to 1.

Resume state is *re-contribution*: survivors re-enter the collective
with their original inputs, so the result over the shrunk group is the
collective over survivor inputs — bitwise-correct by construction, with
no partially-reduced buffer surgery.  (Each
:class:`~repro.recovery.detect.RankFailure` names the ``step`` its rank
died at or was last seen alive at — useful for diagnosis and time
accounting — but correctness never depends on salvaging half-reduced
data.)  The two bookkeeping arrays:

* ``slots[i]`` — the original rank whose *input* local slot ``i``
  contributes.  Shrink deletes entries; spare substitution keeps them
  (the spare adopts the slot's input from its checkpoint — the seeded
  ``make_inputs`` arrays stand in for application checkpoint state).
* ``hosts[i]`` — the process hosting slot ``i`` (spares get fresh ids
  ``p, p+1, …``), which is what the report's survivor sets record.

A dead bcast/scatter root is the one unrecoverable shrink case (its data
existed nowhere else); ``spare`` mode exists exactly for that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.blocks import BlockMap
from ..core.cache import ScheduleCache, global_schedule_cache
from ..core.schedule import Schedule
from ..errors import ExecutionError, PartialFailure, RecoveryError
from ..faults.plan import FaultPlan
from ..obs import OBS
from ..runtime.buffers import make_inputs
from ..runtime.executor import _TIMEOUT, _check_backend, _run_checked
from ..runtime.ops import SUM, ReduceOp
from .detect import (
    HeartbeatDetector,
    emit_notifications,
    failures_from,
)
from .policy import (
    RecoveryPolicy,
    RecoveryReport,
    RoundRecord,
    normalize_policy,
)
from .shrink import elect_root, shrink_plan, substitute_plan

__all__ = ["RecoveryRun", "execute_with_recovery", "shrunk_inputs"]


@dataclass
class RecoveryRun:
    """Result of a recovered execution.

    ``schedule``/``inputs``/``buffers``/``expected`` describe the *final
    successful round* (local numbering of the final group); ``slots``
    maps each final local rank to the original rank whose input it
    contributed; ``hosts`` to the process that hosted it (ids ``>= p``
    are spares); ``report`` is the full recovery history.
    """

    schedule: Schedule
    inputs: List[np.ndarray]
    buffers: List[np.ndarray]
    expected: Dict[int, np.ndarray]
    slots: Tuple[int, ...]
    hosts: Tuple[int, ...]
    report: RecoveryReport

    @property
    def survivors(self) -> Tuple[int, ...]:
        """Original ranks whose data the final result covers."""
        return self.slots


def shrunk_inputs(
    collective: str,
    inputs: List[np.ndarray],
    count: int,
    slots: Tuple[int, ...],
    *,
    root: int = 0,
    dtype: np.dtype = np.dtype(np.int64),
) -> Tuple[List[np.ndarray], int, int]:
    """Re-contributed inputs for the group ``slots`` of an original
    ``p``-rank collective.

    Returns ``(local_inputs, local_count, local_root)``.  Reduction
    collectives keep the full ``count``; gather-family shrink to the sum
    of the surviving blocks (ascending-slot order keeps the MPICH
    larger-blocks-first invariant, so the survivor block sizes are
    exactly ``BlockMap(local_count, p')``'s); bcast keeps the root's
    vector; scatter keeps only the surviving blocks of it.  Raises
    :class:`~repro.errors.RecoveryError` when the data cannot be
    reconstructed (dead bcast/scatter root).
    """
    p = len(inputs)
    pp = len(slots)
    blocks = BlockMap(count, p)
    root_alive = root in slots
    local_root = slots.index(root) if root_alive else 0

    if collective in ("reduce", "allreduce", "reduce_scatter"):
        return [inputs[g] for g in slots], count, local_root
    if collective in ("gather", "allgather"):
        local = [inputs[g] for g in slots]
        return local, sum(len(x) for x in local), local_root
    if collective == "bcast":
        if not root_alive:
            raise RecoveryError(
                f"bcast root {root} failed and no survivor holds its data; "
                f"use recovery mode 'spare' to restore it"
            )
        return (
            [
                inputs[root] if i == local_root else np.empty(0, dtype=dtype)
                for i in range(pp)
            ],
            count,
            local_root,
        )
    if collective == "scatter":
        if not root_alive:
            raise RecoveryError(
                f"scatter root {root} failed and no survivor holds its "
                f"data; use recovery mode 'spare' to restore it"
            )
        kept = np.concatenate(
            [inputs[root][slice(*blocks.range_of(g))] for g in slots]
        )
        return (
            [
                kept if i == local_root else np.empty(0, dtype=dtype)
                for i in range(pp)
            ],
            len(kept),
            local_root,
        )
    raise RecoveryError(
        f"collective {collective!r} does not support shrink recovery"
    )


def _policy_action(
    policy: RecoveryPolicy,
    slots: List[int],
    hosts: List[int],
    blamed_local: Tuple[int, ...],
    spares_left: int,
    next_spare: int,
) -> Tuple[str, List[int], List[int], int, int]:
    """Apply one round's worth of policy to the group bookkeeping.

    Returns ``(action, slots, hosts, spares_left, next_spare)``; raising
    is the caller's job (it owns the report).
    """
    if policy.mode == "spare" and spares_left >= len(blamed_local):
        hosts = list(hosts)
        for local in blamed_local:
            hosts[local] = next_spare
            next_spare += 1
        return "spare", list(slots), hosts, spares_left - len(blamed_local), next_spare
    # shrink (or spare mode out of spares — degrade to shrink)
    dead = set(blamed_local)
    slots = [g for i, g in enumerate(slots) if i not in dead]
    hosts = [h for i, h in enumerate(hosts) if i not in dead]
    return "shrink", slots, hosts, spares_left, next_spare


def execute_with_recovery(
    collective: str,
    algorithm: str,
    *,
    p: int,
    count: int,
    recovery: Union[str, RecoveryPolicy] = "shrink",
    backend: str = "lockstep",
    k: Optional[int] = None,
    root: int = 0,
    op: ReduceOp = SUM,
    dtype: np.dtype = np.dtype(np.int64),
    seed: int = 0,
    check: bool = True,
    rtol: float = 0.0,
    atol: float = 0.0,
    timeout: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    cache: Optional[ScheduleCache] = None,
) -> RecoveryRun:
    """Run a collective end to end, healing injected failures.

    The self-healing counterpart of :func:`repro.api.execute`: the same
    argument check and the same round (build buffers, run ``backend``,
    check), but a :class:`~repro.errors.PartialFailure` triggers the
    policy's detect→shrink→rebuild→rerun loop instead of propagating.
    Faults travel only on ``backend="threaded"``.  Returns a
    :class:`RecoveryRun` whose ``report`` says what failed, what the
    group shrank to, and how long healing took; raises
    :class:`~repro.errors.RecoveryError` (report attached) when the
    policy gives up.
    """
    policy = normalize_policy(recovery)
    if policy is None:
        raise ExecutionError(
            "execute_with_recovery needs a recovery policy; "
            "use repro.execute for the unrecovered path"
        )
    _check_backend(backend, timeout=timeout, faults=faults)
    timeout = _TIMEOUT if timeout is None else timeout
    cache = cache or global_schedule_cache()
    rng = np.random.default_rng(seed)
    inputs = make_inputs(collective, p, count, dtype=dtype, root=root, rng=rng)

    slots: List[int] = list(range(p))
    hosts: List[int] = list(range(p))
    spares_left = policy.spares
    next_spare = p
    plan = faults
    action = "initial"
    report = RecoveryReport(policy=policy)
    first_failure_at: Optional[float] = None

    span = (
        OBS.span(
            "recover",
            collective=collective,
            algorithm=algorithm,
            policy=policy.describe(),
        )
        if OBS.enabled
        else None
    )
    if span is not None:
        span.__enter__()
    try:
        for round_idx in range(policy.max_rounds):
            try:
                local_inputs, local_count, local_root = shrunk_inputs(
                    collective, inputs, count, tuple(slots),
                    root=root, dtype=dtype,
                )
            except RecoveryError as exc:
                raise RecoveryError(str(exc), report=report) from None
            schedule, _ = cache.get_or_build(
                collective, algorithm, len(slots), k=k, root=local_root
            )
            record = RoundRecord(
                round=round_idx,
                action=action,
                nranks=len(slots),
                survivors=tuple(hosts),
                fingerprint=schedule.fingerprint(),
                algorithm=algorithm,
                k=schedule.k,
            )
            # A fresh heartbeat detector per round: workers beat it as
            # they complete steps, and the transport confirms structured
            # faults on it before raising.
            detector = HeartbeatDetector(
                len(slots),
                timeout=policy.detection_timeout or timeout,
                now=time.monotonic(),
            )
            try:
                run = _run_checked(
                    schedule, local_inputs, local_count, backend=backend,
                    op=op, dtype=dtype, check=check, rtol=rtol, atol=atol,
                    timeout=timeout, faults=plan, detector=detector,
                )
            except PartialFailure as exc:
                now = time.monotonic()
                if first_failure_at is None:
                    first_failure_at = now
                failures = failures_from(exc.faults, detected_at=now)
                if not failures:  # pragma: no cover - faults always present
                    raise
                emit_notifications(failures, backend=backend)
                # The record carries the failures detected *in* its round
                # (matching the simulated loop), so an abort report still
                # names who died.
                record = dc_replace(record, failures=failures)
                report.rounds.append(record)
                if policy.mode == "abort":
                    raise RecoveryError(
                        f"{schedule.describe()}: aborting on "
                        f"{len(failures)} failure(s) "
                        f"({', '.join(f.describe() for f in failures)})",
                        report=report,
                    ) from exc
                blamed_local = tuple(
                    sorted({f.rank for f in failures if f.rank < len(slots)})
                )
                if len(slots) - len(blamed_local) < policy.min_ranks:
                    raise RecoveryError(
                        f"{schedule.describe()}: {len(blamed_local)} "
                        f"failure(s) would shrink the group below "
                        f"min_ranks={policy.min_ranks}",
                        report=report,
                    ) from exc
                old_size = len(slots)
                action, slots, hosts, spares_left, next_spare = _policy_action(
                    policy, slots, hosts, blamed_local, spares_left, next_spare
                )
                if action == "spare":
                    plan = substitute_plan(plan, blamed_local)
                else:
                    survivors_local = [
                        i for i in range(old_size)
                        if i not in set(blamed_local)
                    ]
                    plan = shrink_plan(plan, survivors_local)
                continue
            report.rounds.append(dc_replace(record, succeeded=True))
            report.recovered = True
            if first_failure_at is not None:
                report.time_to_recovery = time.monotonic() - first_failure_at
            if OBS.enabled:
                OBS.metrics.counter(
                    "repro_recovery_runs_total",
                    backend=backend,
                    outcome="recovered" if round_idx else "clean",
                ).inc()
            return RecoveryRun(
                schedule=schedule,
                inputs=run.inputs,
                buffers=run.buffers,
                expected=run.expected,
                slots=tuple(slots),
                hosts=tuple(hosts),
                report=report,
            )
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_recovery_runs_total",
                backend=backend,
                outcome="exhausted",
            ).inc()
        raise RecoveryError(
            f"{collective}/{algorithm}: recovery budget exhausted after "
            f"{policy.max_rounds} round(s) "
            f"({len(report.failures)} failure(s) total)",
            report=report,
        )
    finally:
        if span is not None:
            span.__exit__(None, None, None)
