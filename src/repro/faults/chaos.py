"""Chaos harness: sweep fault scenarios across the generalized algorithms.

The resilience contract this repo makes is *fail loud or finish right*:
under any seeded :class:`~repro.faults.plan.FaultPlan`, every collective
either completes with bit-correct results (loss masked by the ack/retry
protocol, slowdowns absorbed into the timeline) or raises a structured
fault error naming exactly which rank, step, peer, and retry budget gave
out.  Never a silent hang, never silent corruption.

This module turns that contract into a sweep: a set of named
:class:`ChaosScenario` s (light loss, heavy loss, duplicate storms,
degraded links, stragglers, crashes, dead links) crossed with every
algorithm in :data:`~repro.core.registry.GENERALIZED_ALGORITHMS` (paper
Table I) on both backends — the threaded transport, which actually
retransmits, and the simulator, which charges retransmission latency to
the machine model.  Each case is classified:

``ok``
    Completed; threaded results verified element-exact against the numpy
    reference, simulated runs produced finite completion times.
``fault``
    Raised :class:`~repro.errors.FaultError` /
    :class:`~repro.errors.PartialFailure` (or reported a partial
    completion) with a full diagnosis — the *correct* outcome for
    unmaskable faults like crashes and dead links when recovery is off.
``recovered``
    (With ``recover=``.)  The unmaskable fault fired, but the
    :mod:`repro.recovery` detect→shrink→rebuild→rerun loop healed it and
    the survivors' results verified bit-exact.
``unrecovered``
    (With ``recover=``.)  Recovery was asked for but gave up — budget
    exhausted, group below ``min_ranks``, or a dead rooted-collective
    root with no spare.  Counts against the exit status like ``FAIL``.
``FAIL``
    Anything else: wrong data, an unstructured error, a deadlock.  The
    sweep's exit status.

Run it via ``repro-chaos`` (``--recover`` for the self-healing sweep) or
``make chaos`` / ``make chaos-recover``; the pytest marker ``chaos``
runs the same sweep in CI tier 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.registry import GENERALIZED_ALGORITHMS, build_schedule
from ..errors import ExecutionError, FaultError, PartialFailure, ReproError
from .plan import Crash, FaultPlan, LinkFault, RetryPolicy, Straggler

__all__ = [
    "ChaosScenario",
    "ChaosResult",
    "default_recovery_policy",
    "default_scenarios",
    "run_case",
    "run_chaos",
    "summarize",
]

#: Retry policy tuned for test sweeps: fast timeouts, generous budget —
#: masks double-digit drop rates in milliseconds instead of seconds.
FAST_RETRY = RetryPolicy(max_retries=8, rto=0.01, backoff=2.0, max_rto=0.08)


@dataclass(frozen=True)
class ChaosScenario:
    """A named fault regime to sweep the algorithm suite under."""

    name: str
    plan: FaultPlan
    #: Human summary of what the scenario stresses.
    blurb: str = ""


@dataclass(frozen=True)
class ChaosResult:
    """Outcome of one (scenario, collective, algorithm, backend) case."""

    scenario: str
    collective: str
    algorithm: str
    backend: str  # "threaded" | "sim"
    outcome: str  # "ok" | "fault" | "recovered" | "unrecovered" | "FAIL"
    detail: str = ""
    retransmissions: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """True unless the resilience contract was violated.

        ``fault`` is fine (structured, loud) when recovery is off;
        ``unrecovered`` is a violation because the caller asked the
        recovery layer to heal and it could not.
        """
        return self.outcome not in ("FAIL", "unrecovered")

    def describe(self) -> str:
        tail = f" [{self.detail}]" if self.detail else ""
        case = f"{self.collective}/{self.algorithm}"
        return (
            f"{self.scenario:<14} {case:<36} {self.backend:<8} "
            f"{self.outcome:<6} retx={self.retransmissions:<3d}{tail}"
        )


def default_scenarios(seed: int = 0, nranks: int = 8) -> Tuple[ChaosScenario, ...]:
    """The standard sweep: maskable loss regimes plus unmaskable faults.

    Scenario seeds are derived from ``seed`` so the whole sweep is one
    reproducible unit; re-running with the same seed replays the exact
    same drops, duplicates, and delays.  With a single rank there are no
    links, so the link-targeted scenarios are omitted.
    """
    mid = nranks // 2
    scenarios = [
        ChaosScenario(
            "light_loss",
            FaultPlan(drop_rate=0.02, seed=seed, retry=FAST_RETRY),
            "2% uniform drops — the common case retries must absorb",
        ),
        ChaosScenario(
            "heavy_loss",
            FaultPlan(drop_rate=0.10, dup_rate=0.05, seed=seed + 1,
                      retry=FAST_RETRY),
            "10% drops + 5% duplicates — stresses dedup and backoff",
        ),
        ChaosScenario(
            "dup_storm",
            FaultPlan(dup_rate=0.30, seed=seed + 2, retry=FAST_RETRY),
            "30% duplicates — FIFO reordering must hold under replay",
        ),
        ChaosScenario(
            "straggler",
            FaultPlan(
                seed=seed + 4,
                stragglers=(Straggler(rank=mid, factor=20.0),),
                retry=FAST_RETRY,
            ),
            "one rank 20x slower — correctness must not depend on pace",
        ),
        ChaosScenario(
            "crash",
            FaultPlan(
                seed=seed + 5,
                crashes=(Crash(rank=min(1, nranks - 1), step=1),),
                retry=FAST_RETRY,
            ),
            "rank dies mid-schedule — expect a structured PartialFailure",
        ),
    ]
    if nranks >= 2:
        scenarios.insert(3, ChaosScenario(
            "degraded_link",
            FaultPlan(
                delay_rate=0.2,
                delay_factor=6.0,
                seed=seed + 3,
                links=(LinkFault(0, 1, drop_rate=0.15,
                                 bandwidth_factor=4.0),),
                retry=FAST_RETRY,
            ),
            "one slow, lossy link amid 20% jittery latency",
        ))
        scenarios.append(ChaosScenario(
            "dead_link",
            FaultPlan(
                seed=seed + 6,
                links=(LinkFault(0, nranks - 1, drop_rate=1.0),),
                retry=RetryPolicy(max_retries=2, rto=0.005, backoff=2.0,
                                  max_rto=0.02),
            ),
            "100% loss on one link — retries must exhaust loudly",
        ))
    return tuple(scenarios)


def default_recovery_policy(p: int):
    """The sweep's healing policy: spare-substitution with ``p`` spares.

    Spare mode (not shrink) because the ``dead_link`` scenario blames the
    sender on link ``0 → p-1`` — rank 0, the root of every rooted
    collective in the suite.  A dead bcast/scatter root is unrecoverable
    by shrinking (its data existed nowhere else) but trivially
    recoverable by substituting a spare that restores the slot's input
    from checkpoint.  ``p`` spares means no scenario can exhaust them.
    """
    from ..recovery import RecoveryPolicy

    return RecoveryPolicy(mode="spare", spares=p)


def run_case(
    collective: str,
    algorithm: str,
    plan: FaultPlan,
    *,
    scenario: str = "adhoc",
    backend: str = "threaded",
    p: int = 8,
    count: int = 64,
    timeout: float = 10.0,
    machine=None,
    recover=None,
) -> ChaosResult:
    """Run one algorithm under one plan and classify the outcome.

    ``recover`` — ``None`` (fail loud, the default), a mode string, or a
    :class:`~repro.recovery.RecoveryPolicy`: unmaskable faults then go
    through the self-healing loop and classify as ``recovered`` /
    ``unrecovered`` instead of ``fault``.
    """
    if backend == "threaded":
        return _run_threaded(collective, algorithm, plan, scenario, p, count,
                             timeout, recover)
    if backend == "sim":
        return _run_sim(collective, algorithm, plan, scenario, p, count,
                        machine, recover)
    raise ExecutionError(f"unknown chaos backend {backend!r}")


def _run_threaded(
    collective: str,
    algorithm: str,
    plan: FaultPlan,
    scenario: str,
    p: int,
    count: int,
    timeout: float,
    recover=None,
) -> ChaosResult:
    # Imported here: repro.faults must stay importable without pulling in
    # the runtime package (noise.py imports repro.faults.rng at startup).
    from ..runtime.buffers import (
        check_outputs,
        initial_buffers,
        make_inputs,
        reference_result,
    )
    if recover is not None:
        return _run_threaded_recover(collective, algorithm, plan, scenario,
                                     p, count, timeout, recover)
    start = time.perf_counter()
    sched = build_schedule(collective, algorithm, p)
    inputs = make_inputs(collective, p, count)
    expected = reference_result(collective, inputs, count)
    bufs = initial_buffers(sched, inputs, count)
    transport_retx = 0

    def done(outcome: str, detail: str = "") -> ChaosResult:
        return ChaosResult(
            scenario=scenario,
            collective=collective,
            algorithm=algorithm,
            backend="threaded",
            outcome=outcome,
            detail=detail,
            retransmissions=transport_retx,
            elapsed=time.perf_counter() - start,
        )

    from ..runtime.threaded import ThreadedTransport

    transport = ThreadedTransport(sched, timeout=timeout, faults=plan)
    try:
        transport.run(bufs)
        transport_retx = sum(
            ch.retransmissions for ch in transport._channels.values()
        )
    except (FaultError, PartialFailure) as exc:
        transport_retx = sum(
            ch.retransmissions for ch in transport._channels.values()
        )
        detail = (
            "; ".join(f.diagnosis() for f in exc.faults)
            if isinstance(exc, PartialFailure)
            else exc.diagnosis()
        )
        return done("fault", detail)
    except ReproError as exc:
        return done("FAIL", f"unstructured error: {exc}")
    try:
        check_outputs(sched, bufs, expected, count)
    except ReproError as exc:
        return done("FAIL", f"silent corruption: {exc}")
    leftovers = transport.leftover_messages()
    if leftovers:
        return done("FAIL", f"{leftovers} message(s) never consumed")
    return done("ok")


def _run_threaded_recover(
    collective: str,
    algorithm: str,
    plan: FaultPlan,
    scenario: str,
    p: int,
    count: int,
    timeout: float,
    recover,
) -> ChaosResult:
    from ..errors import RecoveryError
    from ..recovery import execute_with_recovery

    start = time.perf_counter()

    def done(outcome: str, detail: str = "") -> ChaosResult:
        return ChaosResult(
            scenario=scenario,
            collective=collective,
            algorithm=algorithm,
            backend="threaded",
            outcome=outcome,
            detail=detail,
            elapsed=time.perf_counter() - start,
        )

    try:
        run = execute_with_recovery(
            collective, algorithm, p=p, count=count, recovery=recover,
            backend="threaded", timeout=timeout, faults=plan,
        )
    except RecoveryError as exc:
        return done("unrecovered", str(exc))
    except ReproError as exc:
        return done("FAIL", f"unstructured error: {exc}")
    report = run.report
    if report.nrounds == 1:
        return done("ok")
    return done(
        "recovered",
        f"rounds={report.nrounds} survivors={len(run.slots)}/{p} "
        f"ttr={report.time_to_recovery * 1e3:.1f}ms",
    )


def _run_sim(
    collective: str,
    algorithm: str,
    plan: FaultPlan,
    scenario: str,
    p: int,
    count: int,
    machine,
    recover=None,
) -> ChaosResult:
    from ..simnet.machines import reference
    from ..simnet.simulate import simulate

    if machine is None:
        machine = reference(p)
    start = time.perf_counter()

    def done(outcome: str, detail: str = "", retx: int = 0) -> ChaosResult:
        return ChaosResult(
            scenario=scenario,
            collective=collective,
            algorithm=algorithm,
            backend="sim",
            outcome=outcome,
            detail=detail,
            retransmissions=retx,
            elapsed=time.perf_counter() - start,
        )

    if recover is not None:
        from ..recovery import simulate_with_recovery

        try:
            rres = simulate_with_recovery(
                collective, algorithm, machine, count * 8,
                recovery=recover, faults=plan,
            )
        except ReproError as exc:
            return done("FAIL", f"unstructured error: {exc}")
        if not rres.recovered:
            return done(
                "unrecovered",
                f"gave up after {rres.rounds} round(s): "
                + rres.report.describe(),
            )
        if rres.rounds == 1:
            return done("ok", f"t={rres.time_us:.2f}us")
        return done(
            "recovered",
            f"rounds={rres.rounds} survivors={len(rres.survivors)}/{p} "
            f"ttr={rres.time_to_recovery_us:.1f}us "
            f"t={rres.time_us:.2f}us",
        )

    sched = build_schedule(collective, algorithm, p)
    try:
        res = simulate(sched, machine, count * 8, faults=plan)
    except ReproError as exc:
        return done("FAIL", f"unstructured error: {exc}")
    if res.complete:
        return done("ok", f"t={res.time * 1e6:.2f}us",
                    retx=res.retransmissions)
    if res.failed_ranks or res.stalled_ranks:
        return done(
            "fault",
            f"failed={list(res.failed_ranks)} "
            f"stalled={list(res.stalled_ranks)}",
            retx=res.retransmissions,
        )
    return done("FAIL", "incomplete result with no fault diagnosis")


def run_chaos(
    scenarios: Optional[Sequence[ChaosScenario]] = None,
    *,
    p: int = 8,
    count: int = 64,
    seed: int = 0,
    backends: Sequence[str] = ("threaded", "sim"),
    algorithms: Sequence[Tuple[str, str]] = GENERALIZED_ALGORITHMS,
    timeout: float = 10.0,
    recover=None,
) -> List[ChaosResult]:
    """The full sweep: scenarios x Table I algorithms x backends.

    ``recover=True`` heals with :func:`default_recovery_policy`; a mode
    string or :class:`~repro.recovery.RecoveryPolicy` picks the policy
    explicitly.
    """
    if scenarios is None:
        scenarios = default_scenarios(seed, p)
    if recover is True:
        recover = default_recovery_policy(p)
    results: List[ChaosResult] = []
    for scen in scenarios:
        for backend in backends:
            for coll, alg in algorithms:
                results.append(
                    run_case(
                        coll,
                        alg,
                        scen.plan,
                        scenario=scen.name,
                        backend=backend,
                        p=p,
                        count=count,
                        timeout=timeout,
                        recover=recover,
                    )
                )
    return results


def summarize(results: Sequence[ChaosResult]) -> str:
    """Human-readable sweep report; flags every contract violation.

    Besides the per-scenario roll-up, any algorithm that produced a
    non-``ok`` outcome gets its own line — so a sweep that ends with
    faults (or worse) names exactly which collective/algorithm pairs
    they came from, not just how many there were.
    """
    lines = []
    n_ok = sum(1 for r in results if r.outcome == "ok")
    n_fault = sum(1 for r in results if r.outcome == "fault")
    n_recovered = sum(1 for r in results if r.outcome == "recovered")
    n_unrecovered = sum(1 for r in results if r.outcome == "unrecovered")
    bad = [r for r in results if not r.ok]
    for r in results:
        if not r.ok:
            lines.append("VIOLATION " + r.describe())
    by_scenario: dict = {}
    for r in results:
        by_scenario.setdefault(r.scenario, []).append(r)
    for name, group in by_scenario.items():
        ok = sum(1 for r in group if r.outcome == "ok")
        fault = sum(1 for r in group if r.outcome == "fault")
        healed = sum(1 for r in group if r.outcome == "recovered")
        retx = sum(r.retransmissions for r in group)
        extra = f" {healed:3d} recovered," if healed else ""
        lines.append(
            f"{name:<14} {len(group):3d} cases: {ok:3d} ok, "
            f"{fault:3d} structured fault(s),{extra} "
            f"{len([r for r in group if not r.ok]):2d} violation(s), "
            f"{retx} retransmission(s)"
        )
    by_algorithm: dict = {}
    for r in results:
        if r.outcome != "ok":
            key = f"{r.collective}/{r.algorithm}"
            by_algorithm.setdefault(key, []).append(r)
    if by_algorithm:
        lines.append("failures by algorithm:")
        for case in sorted(by_algorithm):
            group = by_algorithm[case]
            counts = {}
            for r in group:
                counts[r.outcome] = counts.get(r.outcome, 0) + 1
            breakdown = ", ".join(
                f"{counts[o]} {o}" for o in
                ("fault", "recovered", "unrecovered", "FAIL") if o in counts
            )
            scens = sorted({r.scenario for r in group})
            lines.append(
                f"  {case:<36} {breakdown}  "
                f"[{', '.join(scens)}]"
            )
    tail = ""
    if n_recovered or n_unrecovered:
        tail = (f", {n_recovered} recovered, "
                f"{n_unrecovered} unrecovered")
    lines.append(
        f"total: {len(results)} cases, {n_ok} ok, {n_fault} structured "
        f"fault(s){tail}, {len(bad)} contract violation(s)"
    )
    return "\n".join(lines)
