"""Self-healing collectives: detect, shrink, rebuild, resume.

ULFM-inspired fault tolerance over both execution backends.  A failure
mid-collective — an injected crash, an exhausted retry budget, a silent
rank — no longer ends in a terminal
:class:`~repro.errors.PartialFailure`: the
:class:`~repro.recovery.policy.RecoveryPolicy` decides whether to abort,
shrink the group and rerun over survivors, or substitute spare
processes, and the loop rebuilds the schedule for the new group size
through the :class:`~repro.core.cache.ScheduleCache` (the paper's
generalized algorithms are parameterized by ``p``, so "rebuild for the
survivors" is just another registry build — the property that makes
shrink recovery natural here).

Entry points:

* :func:`~repro.recovery.execute.execute_with_recovery` — real data,
  wall-clock recovery; faults travel on ``backend="threaded"`` (also
  reachable as ``repro.execute(..., recovery=...)``);
* :func:`~repro.recovery.sim.simulate_with_recovery` — simulated
  time-to-recovery on a modeled machine, deterministic and
  sweep-friendly;
* :func:`~repro.recovery.retune.retune_degraded` — re-pick
  ``(algorithm, k)`` under degraded links.

See DESIGN.md §11 for the recovery model (detector semantics, shrink
protocol, resume-state invariants).
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    "HeartbeatDetector": ".detect",
    "LinkDegraded": ".detect",
    "RankFailure": ".detect",
    "failures_from": ".detect",
    "simulated_failures": ".detect",
    "suspects_of": ".detect",
    "RecoveryRun": ".execute",
    "execute_with_recovery": ".execute",
    "RECOVERY_MODES": ".policy",
    "RecoveryPolicy": ".policy",
    "RecoveryReport": ".policy",
    "RoundRecord": ".policy",
    "normalize_policy": ".policy",
    "degraded_plan": ".retune",
    "retune_degraded": ".retune",
    "elect_root": ".shrink",
    "shrink_machine": ".shrink",
    "shrink_plan": ".shrink",
    "substitute_plan": ".shrink",
    "SimRecoveryResult": ".sim",
    "detection_timeout": ".sim",
    "simulate_with_recovery": ".sim",
})

__all__ = [
    "HeartbeatDetector",
    "LinkDegraded",
    "RankFailure",
    "failures_from",
    "simulated_failures",
    "suspects_of",
    "RecoveryRun",
    "execute_with_recovery",
    "RECOVERY_MODES",
    "RecoveryPolicy",
    "RecoveryReport",
    "RoundRecord",
    "normalize_policy",
    "degraded_plan",
    "retune_degraded",
    "elect_root",
    "shrink_machine",
    "shrink_plan",
    "substitute_plan",
    "SimRecoveryResult",
    "detection_timeout",
    "simulate_with_recovery",
]
