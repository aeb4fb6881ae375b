"""Online adaptive selection under drifting degradation and contention.

The offline tuner (:mod:`repro.selection.tuner`) answers "which
``(algorithm, k)`` wins on a *healthy* fabric" once.  This package keeps
the answer current while the fabric drifts — links flap, stragglers
migrate, neighbor jobs come and go — by closing the loop between
observation and selection:

* :mod:`repro.adapt.monitor` — a debounced EWMA changepoint detector
  over per-round timings plus the degraded-link telemetry stream,
  emitting structured :class:`ConditionChange` events;
* :mod:`repro.adapt.selector` — a seeded UCB bandit over the candidate
  arms, warm-started from tuner priors, guarded by hysteresis, switch
  cost, and cooldown, escalating a *keep → retune → shrink → abort*
  policy ladder;
* :mod:`repro.adapt.loop` — :func:`run_adaptive`, the round loop that
  wires plan resolution, simulation, detection, and re-selection into
  an :class:`AdaptReport` of regret and time-to-adapt vs. an oracle;
* :mod:`repro.adapt.scenarios` — named deterministic drift scenarios
  (``flap``, ``migrate``, ``contention``, ``calm``) shared by the CLI,
  the bench, and the golden tests.

Time-varying conditions themselves are declared in
:mod:`repro.faults.plan` (:class:`~repro.faults.plan.PhasedFaultPlan`,
:class:`~repro.faults.plan.ContentionModel`) and charged by the
simulator exactly like static fault plans.  Everything downstream is a
pure function of seeds and plans, so adaptive runs are bit-identical at
any ``--jobs`` — and with ``adapt`` off, no code in this package runs at
all.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    "AdaptiveRun": ".loop",
    "AdaptReport": ".loop",
    "RoundRecord": ".loop",
    "run_adaptive": ".loop",
    "ConditionChange": ".monitor",
    "HealthMonitor": ".monitor",
    "SCENARIOS": ".scenarios",
    "AdaptScenario": ".scenarios",
    "calm_scenario": ".scenarios",
    "contention_scenario": ".scenarios",
    "flap_scenario": ".scenarios",
    "get_scenario": ".scenarios",
    "migrate_scenario": ".scenarios",
    "DEFAULT_POLICY": ".selector",
    "AdaptPolicy": ".selector",
    "OnlineSelector": ".selector",
})

__all__ = [
    "AdaptPolicy",
    "DEFAULT_POLICY",
    "OnlineSelector",
    "ConditionChange",
    "HealthMonitor",
    "RoundRecord",
    "AdaptReport",
    "AdaptiveRun",
    "run_adaptive",
    "AdaptScenario",
    "SCENARIOS",
    "get_scenario",
    "flap_scenario",
    "migrate_scenario",
    "contention_scenario",
    "calm_scenario",
]
