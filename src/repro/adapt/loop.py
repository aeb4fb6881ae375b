"""The adaptive loop: observe → detect → re-select, round after round.

:func:`run_adaptive` drives a stream of collective rounds against a
fabric whose condition drifts — a
:class:`~repro.faults.plan.PhasedFaultPlan` of degradations that appear
and heal, a :class:`~repro.faults.plan.ContentionModel` of background
jobs, or both stacked via :func:`~repro.faults.plan.combine_plans`.
Each round it:

1. resolves the round's effective fault plan and simulates the
   incumbent ``(algorithm, k)`` under it (the simulator *is* the
   observation — simulation is pure, so the loop is bit-identical at
   any ``jobs`` and under any engine);
2. feeds the observed time and the degraded-link telemetry
   (:func:`repro.recovery.detect.simulated_failures`) into the
   :class:`~repro.adapt.monitor.HealthMonitor`;
3. advances the :class:`~repro.adapt.selector.OnlineSelector`'s ladder
   — ``keep`` in steady state, ``retune`` on a detected change
   (re-seeding arms from a sweep under the *telemetry-derived* degraded
   plan, never by peeking at the injected plan), ``shrink`` after
   sustained trouble, ``abort`` when the fabric is hopeless;
4. lets the bandit pick next round's arm, charging the declared switch
   cost whenever the arm changes.

The returned :class:`AdaptReport` carries a per-round trail plus the
three headline numbers the bench gates: cumulative **regret** vs. an
oracle that re-picks the best arm every round with perfect knowledge,
the **static regret** a fixed healthy-winner selection would have paid,
and **time-to-adapt** — rounds from each phase change until the running
arm matches the oracle's post-change winner.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import AdaptError
from ..faults.plan import (
    ContentionModel,
    FaultPlan,
    PhasedFaultPlan,
    combine_plans,
)
from ..obs import OBS
from ..recovery.detect import LinkDegraded, simulated_failures
from ..recovery.retune import degraded_plan
from ..selection.table import Choice
from ..simnet.machine import MachineSpec
from .monitor import HealthMonitor
from .selector import DEFAULT_POLICY, AdaptPolicy, OnlineSelector, _arm_key

__all__ = ["RoundRecord", "AdaptReport", "AdaptiveRun", "run_adaptive"]


@dataclass(frozen=True)
class RoundRecord:
    """One round of the adaptive loop, fully accounted.

    ``time`` is the incumbent's simulated time under the round's
    effective plan; ``effective_time`` adds the switch cost when this
    round first ran a newly chosen arm.  ``oracle_*`` is the
    best-possible pick under the same plan; ``static_time`` what the
    fixed healthy winner would have cost.  ``action`` is the ladder rung
    taken (``keep``/``retune``/``shrink``/``abort``) and ``event`` the
    monitor event kind that round, if any.
    """

    round_index: int
    algorithm: str
    k: Optional[int]
    time: float
    effective_time: float
    switched: bool
    action: str
    event: Optional[str]
    oracle_algorithm: str
    oracle_k: Optional[int]
    oracle_time: float
    static_time: float


@dataclass
class AdaptReport:
    """The adaptive loop's full trail and headline metrics."""

    collective: str
    machine: str
    nbytes: int
    policy: AdaptPolicy
    static_algorithm: str
    static_k: Optional[int]
    change_rounds: Tuple[int, ...] = ()
    records: List[RoundRecord] = field(default_factory=list)
    aborted: bool = False

    @property
    def final_choice(self) -> Choice:
        """The arm running when the loop ended."""
        if not self.records:
            raise AdaptError("empty adaptive report has no final choice")
        last = self.records[-1]
        return Choice(last.algorithm, last.k)

    @property
    def switches(self) -> int:
        """How many rounds started on a different arm than the last."""
        return sum(1 for r in self.records if r.switched)

    @property
    def regret(self) -> float:
        """Cumulative effective time paid over the per-round oracle."""
        return sum(r.effective_time - r.oracle_time for r in self.records)

    @property
    def static_regret(self) -> float:
        """What a fixed healthy-winner selection would have paid over
        the oracle — the baseline adaptivity must beat."""
        return sum(r.static_time - r.oracle_time for r in self.records)

    @property
    def time_to_adapt(self) -> Dict[int, Optional[int]]:
        """Rounds from each phase change until the running arm matches
        the oracle's pick for that round (``None`` = never caught up)."""
        out: Dict[int, Optional[int]] = {}
        for c in self.change_rounds:
            if c >= len(self.records):
                continue
            out[c] = None
            for rec in self.records[c:]:
                if (
                    rec.algorithm == rec.oracle_algorithm
                    and rec.k == rec.oracle_k
                ):
                    out[c] = rec.round_index - c
                    break
        return out

    def to_dict(self) -> dict:
        """JSON-ready representation (what ``adapt_report.json`` holds)."""
        return {
            "collective": self.collective,
            "machine": self.machine,
            "nbytes": self.nbytes,
            "policy": asdict(self.policy),
            "static": {
                "algorithm": self.static_algorithm,
                "k": self.static_k,
            },
            "final": {
                "algorithm": self.final_choice.algorithm,
                "k": self.final_choice.k,
            },
            "change_rounds": list(self.change_rounds),
            "rounds": [asdict(r) for r in self.records],
            "switches": self.switches,
            "regret": self.regret,
            "static_regret": self.static_regret,
            "time_to_adapt": {
                str(c): v for c, v in self.time_to_adapt.items()
            },
            "aborted": self.aborted,
        }

    def describe(self) -> str:
        """One-line human summary of the run."""
        tta = ", ".join(
            f"round {c}: {'never' if v is None else f'{v} round(s)'}"
            for c, v in sorted(self.time_to_adapt.items())
        )
        return (
            f"adapt {self.collective} n={self.nbytes} on {self.machine}: "
            f"{len(self.records)} round(s), {self.switches} switch(es), "
            f"regret {self.regret:.6f}s vs static {self.static_regret:.6f}s"
            + (f"; time-to-adapt {tta}" if tta else "")
            + ("; ABORTED" if self.aborted else "")
        )


@dataclass
class AdaptiveRun:
    """What ``execute(..., adapt=...)`` returns: the adaptive loop's
    :class:`AdaptReport`, the :class:`~repro.runtime.executor.
    CollectiveRun` of the executed schedule on the requested backend,
    and ``choice`` — the ``(algorithm, k)`` that actually ran (the
    loop's final pick, or the caller's original choice on an abort)."""

    report: AdaptReport
    run: object
    choice: Choice


def run_adaptive(
    collective: str,
    machine: Union[str, MachineSpec],
    nbytes: int,
    *,
    rounds: int,
    phased: Optional[PhasedFaultPlan] = None,
    contention: Optional[ContentionModel] = None,
    algorithms: Optional[Sequence[str]] = None,
    root: int = 0,
    policy: AdaptPolicy = DEFAULT_POLICY,
    jobs: int = 0,
    engine: str = "auto",
    seed: int = 0,
    priors: Optional[Mapping[Choice, float]] = None,
) -> AdaptReport:
    """Run the closed loop for ``rounds`` rounds; return the full trail.

    The candidate arm set is the tuner's healthy sweep over the
    registered (or given) ``algorithms``, pruned to the policy's
    ``max_candidates`` best — those healthy times are also the bandit's
    warm-start priors.  ``phased`` and ``contention`` drive the drift;
    with neither, every round is healthy and the loop provably never
    switches (``tests/test_adapt.py`` pins this).  ``jobs``/``engine``
    tune sweep wall-clock only: every number in the report is
    bit-identical across them.  An ``abort`` from the ladder stops the
    loop early and sets ``aborted`` on the report — it never raises.

    ``priors`` seeds the healthy arm times directly — the
    ``{Choice: seconds}`` mapping
    :meth:`repro.selection.SelectionConfig.priors_for` exports — replacing
    the loop's own healthy sweep.  Healthy simulation is deterministic,
    so priors recorded on the same machine reproduce exactly the sweep's
    numbers and the whole trail is bit-identical to a cold run; the
    warm start only removes the boot sweep's wall-clock.
    """
    from ..api import build
    from ..core.registry import info
    from ..selection.tuner import sweep_collective
    from ..simnet.machines import resolve as resolve_machine

    machine = resolve_machine(machine)
    if rounds < 1:
        raise AdaptError(f"rounds must be >= 1, got {rounds}")
    nbytes = int(nbytes)

    cache: Dict[Optional[FaultPlan], Dict[Choice, float]] = {}
    if priors:
        cache[None] = {
            choice: float(time) for choice, time in priors.items()
        }

    def times_under(plan: Optional[FaultPlan]) -> Dict[Choice, float]:
        if plan not in cache:
            sweep = sweep_collective(
                collective,
                machine,
                [nbytes],
                algorithms=algorithms,
                root=root,
                faults=plan,
                jobs=jobs,
                engine=engine,
            )
            cache[plan] = {
                e.choice: e.time
                for e in sweep.entries
                if e.nbytes == nbytes
            }
        return cache[plan]

    healthy = times_under(None)
    selector = OnlineSelector(healthy, policy=policy, seed=seed)
    monitor = HealthMonitor(
        alpha=policy.alpha,
        threshold=policy.threshold,
        window=policy.window,
    )
    universe = selector.arms  # oracle competes over the pruned arm set
    static_choice = selector.current
    healthy_best = healthy[static_choice]
    report = AdaptReport(
        collective=collective,
        machine=machine.name,
        nbytes=nbytes,
        policy=policy,
        static_algorithm=static_choice.algorithm,
        static_k=static_choice.k,
        change_rounds=phased.change_rounds if phased is not None else (),
    )

    schedules: Dict[Choice, object] = {}

    def schedule_for(choice: Choice):
        if choice not in schedules:
            entry = info(collective, choice.algorithm)
            schedules[choice] = build(
                collective,
                choice.algorithm,
                p=machine.nranks,
                k=choice.k,
                root=root if entry.takes_root else 0,
            )
        return schedules[choice]

    prev_arm: Optional[Choice] = None
    for r in range(rounds):
        plan = combine_plans(
            phased.plan_at(r) if phased is not None else None,
            contention.plan_at(r) if contention is not None else None,
        )
        times = times_under(plan)
        incumbent = selector.current
        if incumbent not in times:
            raise AdaptError(
                f"sweep under round {r}'s plan lost arm "
                f"{incumbent.describe()}"
            )
        observed = times[incumbent]
        oracle = min(universe, key=lambda c: (times[c], _arm_key(c)))
        # Telemetry channel first (a link event names the cause; a bare
        # timing event only says *something* changed).
        degraded: Tuple[LinkDegraded, ...] = ()
        event = None
        if policy.telemetry and plan is not None:
            _, degraded = simulated_failures(schedule_for(incumbent), plan)
            event = monitor.note_degraded(r, degraded)
        elif policy.telemetry:
            event = monitor.note_degraded(r, ())
        timing_event = monitor.observe(r, observed)
        if event is None:
            event = timing_event
        action = selector.ladder_action(observed / healthy_best, event)
        switched_into = prev_arm is not None and incumbent != prev_arm
        effective = observed + (
            policy.switch_cost if switched_into else 0.0
        )
        report.records.append(
            RoundRecord(
                round_index=r,
                algorithm=incumbent.algorithm,
                k=incumbent.k,
                time=observed,
                effective_time=effective,
                switched=switched_into,
                action=action,
                event=event.kind if event is not None else None,
                oracle_algorithm=oracle.algorithm,
                oracle_k=oracle.k,
                oracle_time=times[oracle],
                static_time=times[static_choice],
            )
        )
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_adapt_rounds_total", collective=collective
            ).inc()
            if switched_into:
                OBS.metrics.counter(
                    "repro_adapt_switches_total", collective=collective
                ).inc()
            if event is not None:
                OBS.metrics.counter(
                    "repro_adapt_changes_total", kind=event.kind
                ).inc()
        if action == "abort":
            report.aborted = True
            break
        if action == "retune":
            # Re-seed from what telemetry *observed*, not from the
            # injected plan — with no degraded links on record the best
            # we can do is reopen exploration.
            observed_plan = degraded_plan(degraded)
            if observed_plan is not None:
                selector.retune(times_under(observed_plan))
            elif event is not None and event.kind == "heal":
                selector.retune(healthy)
            else:
                selector.on_change(event)  # type: ignore[arg-type]
        selector.observe(incumbent, observed)
        prev_arm = incumbent
        selector.pick()
    return report
