"""The online adaptive selection loop (:mod:`repro.adapt`).

Three layers of coverage:

* unit tests of the :class:`HealthMonitor` (debounce, re-anchoring,
  telemetry set-changes) and the :class:`OnlineSelector` (hysteresis,
  switch cost, cooldown, shrink, the *keep → retune → shrink → abort*
  ladder);
* integration through :func:`repro.execute(adapt=...)` on both backends,
  including the abort-falls-back-to-caller's-choice contract;
* the golden-pinned flap scenario: the selector must converge to the
  oracle's post-change winner within bounded rounds, with cumulative
  regret strictly below the static baseline, bit-identical at any
  ``jobs`` — the repo's headline adaptivity claim, pinned to the digit.
"""

import json

import numpy as np
import pytest

import repro
from repro.adapt import (
    DEFAULT_POLICY,
    AdaptPolicy,
    AdaptScenario,
    AdaptiveRun,
    HealthMonitor,
    OnlineSelector,
    get_scenario,
    run_adaptive,
)
from repro.adapt.monitor import ConditionChange
from repro.bench.adapt import run_adapt_bench
from repro.errors import AdaptError, ExecutionError
from repro.faults.plan import FaultPhase, FaultPlan, PhasedFaultPlan, Straggler
from repro.recovery.detect import LinkDegraded
from repro.selection.table import Choice
from repro import cli


# ---------------------------------------------------------------------------
# HealthMonitor
# ---------------------------------------------------------------------------


def _event(kind="degrade"):
    return ConditionChange(
        round_index=0, kind=kind, ratio=2.0, observed=2.0, baseline=1.0
    )


def test_monitor_first_observation_anchors():
    mon = HealthMonitor()
    assert mon.baseline is None
    assert mon.observe(0, 1.0) is None
    assert mon.baseline == 1.0


def test_monitor_fires_after_full_window_and_reanchors():
    mon = HealthMonitor(threshold=1.25, window=2)
    mon.observe(0, 1.0)
    assert mon.observe(1, 2.0) is None  # first outlier: debounced
    event = mon.observe(2, 2.0)
    assert event is not None and event.kind == "degrade"
    assert event.ratio == 2.0
    assert mon.baseline == 2.0  # re-anchored to the new regime
    # A second change is detectable from the new baseline.
    mon.observe(3, 5.0)
    second = mon.observe(4, 5.0)
    assert second is not None and second.kind == "degrade"


def test_monitor_single_outliers_never_fire_or_poison_baseline():
    mon = HealthMonitor(threshold=1.25, window=2, alpha=0.3)
    mon.observe(0, 1.0)
    for r in range(1, 9):
        # Alternate outlier / in-band: the streak never completes.
        assert mon.observe(r, 2.0 if r % 2 else 1.0) is None
    # Outliers were withheld from the EWMA, so the baseline stayed put.
    assert mon.baseline == 1.0


def test_monitor_improve_event():
    mon = HealthMonitor(threshold=1.25, window=2)
    mon.observe(0, 1.0)
    mon.observe(1, 0.5)
    event = mon.observe(2, 0.5)
    assert event is not None and event.kind == "improve"


def test_monitor_telemetry_link_and_heal():
    mon = HealthMonitor()
    deg = (LinkDegraded(0, 1, delay_factor=4.0),)
    assert mon.note_degraded(0, ()) is None
    event = mon.note_degraded(1, deg)
    assert event is not None and event.kind == "link"
    assert "0->1" in event.detail
    assert mon.note_degraded(2, deg) is None  # unchanged set: quiet
    heal = mon.note_degraded(3, ())
    assert heal is not None and heal.kind == "heal"


def test_monitor_validation():
    with pytest.raises(AdaptError):
        HealthMonitor(alpha=0.0)
    with pytest.raises(AdaptError):
        HealthMonitor(threshold=1.0)
    with pytest.raises(AdaptError):
        HealthMonitor(window=0)
    with pytest.raises(AdaptError):
        HealthMonitor().observe(0, 0.0)


# ---------------------------------------------------------------------------
# OnlineSelector
# ---------------------------------------------------------------------------

A = Choice("recursive_doubling", None)
B = Choice("knomial", 4)
C = Choice("knomial", 2)


def test_selector_warm_start_and_pruning():
    policy = AdaptPolicy(max_candidates=2)
    sel = OnlineSelector({A: 3.0, B: 1.0, C: 2.0}, policy=policy)
    assert sel.current == B  # best prior
    assert set(sel.arms) == {B, C}  # worst prior pruned away
    assert sel.mean(B) == 1.0


def test_selector_validation():
    with pytest.raises(AdaptError):
        OnlineSelector({})
    with pytest.raises(AdaptError):
        OnlineSelector({A: 0.0})
    sel = OnlineSelector({A: 1.0})
    with pytest.raises(AdaptError):
        sel.observe(B, 1.0)
    with pytest.raises(AdaptError):
        sel.observe(A, -1.0)


def test_hysteresis_blocks_marginal_switch_then_allows_clear_one():
    policy = AdaptPolicy(explore=0.0, hysteresis=0.5, cooldown=0)
    sel = OnlineSelector({A: 1.0, B: 1.01}, policy=policy)
    assert sel.current == A
    sel.observe(A, 2.0)  # mean(A) = 1.5; margin 0.49 < needed 0.75
    arm, switched = sel.pick()
    assert arm == A and not switched
    sel.observe(A, 6.0)  # mean(A) = 3.0; margin 1.99 > needed 1.5
    arm, switched = sel.pick()
    assert arm == B and switched
    assert sel.switches == 1


def test_switch_cost_gates_the_pick():
    policy = AdaptPolicy(explore=0.0, hysteresis=0.0, switch_cost=10.0,
                         cooldown=0)
    sel = OnlineSelector({A: 1.0, B: 2.0}, policy=policy)
    sel.observe(A, 8.0)  # mean(A) = 4.5: B better by 2.5, cost is 10
    arm, switched = sel.pick()
    assert arm == A and not switched


def test_cooldown_holds_the_new_arm():
    policy = AdaptPolicy(explore=0.0, hysteresis=0.0, cooldown=2)
    sel = OnlineSelector({A: 1.0, B: 1.5}, policy=policy)
    sel.observe(A, 10.0)
    arm, switched = sel.pick()
    assert arm == B and switched
    sel.observe(B, 100.0)  # B is terrible, but cooldown holds it
    assert sel.pick() == (B, False)
    assert sel.pick() == (B, False)
    arm, switched = sel.pick()  # cooldown expired: back to A
    assert arm == A and switched


def test_on_change_reopens_exploration():
    sel = OnlineSelector({A: 1.0})
    for _ in range(5):
        sel.observe(A, 1.0)
    sel.on_change(_event())
    sel.observe(A, 3.0)  # count reset to 1: next obs carries half weight
    assert sel.mean(A) == 2.0


def test_retune_reseeds_live_arms_only():
    sel = OnlineSelector({A: 1.0, B: 2.0})
    sel.retune({A: 5.0})
    assert sel.mean(A) == 5.0
    assert sel.mean(B) == 2.0  # absent from the new priors: kept
    with pytest.raises(AdaptError):
        sel.retune({A: 0.0})


def test_ladder_escalates_keep_shrink_abort():
    policy = AdaptPolicy(patience=2, shrink_ratio=2.0, abort_ratio=10.0,
                         shrink_to=1)
    sel = OnlineSelector({A: 1.0, B: 1.5, C: 2.0}, policy=policy)
    assert sel.ladder_action(3.0, None) == "keep"  # streak of 1
    assert sel.ladder_action(3.0, None) == "shrink"  # patience reached
    assert len(sel.arms) == 1 and sel.current in sel.arms
    assert sel.ladder_action(3.0, None) == "keep"  # shrinks only once
    assert sel.ladder_action(11.0, None) == "keep"  # abort streak of 1
    assert sel.ladder_action(11.0, None) == "abort"
    # An in-band round clears both streaks.
    sel2 = OnlineSelector({A: 1.0}, policy=policy)
    assert sel2.ladder_action(11.0, None) == "keep"
    assert sel2.ladder_action(1.0, None) == "keep"
    assert sel2.ladder_action(11.0, None) == "keep"  # streak restarted


def test_ladder_event_asks_for_retune():
    sel = OnlineSelector({A: 1.0})
    assert sel.ladder_action(1.0, _event("link")) == "retune"


def test_shrink_always_keeps_incumbent():
    policy = AdaptPolicy(explore=0.0, hysteresis=0.0, cooldown=0,
                         shrink_to=1)
    sel = OnlineSelector({A: 1.0, B: 1.5, C: 2.0}, policy=policy)
    sel.observe(A, 100.0)  # incumbent A now has the worst mean
    dropped = sel.shrink()
    assert sel.current == A and A in sel.arms
    assert len(dropped) == 2


def test_policy_validation():
    with pytest.raises(AdaptError):
        AdaptPolicy(hysteresis=-0.1)
    with pytest.raises(AdaptError):
        AdaptPolicy(shrink_ratio=4.0, abort_ratio=3.0)
    with pytest.raises(AdaptError):
        AdaptPolicy(patience=0)
    with pytest.raises(AdaptError):
        AdaptPolicy(max_candidates=0)


# ---------------------------------------------------------------------------
# The loop: golden convergence, invariance, abort
# ---------------------------------------------------------------------------


def test_flap_convergence_golden(golden, small_frontier):
    """The headline claim, pinned: under the flapping-NIC scenario the
    selector reaches the oracle's post-change winner within the gate's
    bound after *both* changes (degrade and heal), with cumulative
    regret strictly below the static baseline, and the whole trail
    bit-identical when the underlying sweeps fan out to 2 workers."""
    doc = run_adapt_bench(small_frontier, scenario="flap", check_jobs=2)
    assert doc["jobs_invariant"]
    assert doc["adapted_all_changes"]
    assert doc["max_time_to_adapt"] <= 4
    assert doc["regret"] < doc["static_regret"]
    assert not doc["aborted"]
    golden("adapt_convergence").check(doc)


def test_calm_scenario_never_switches(small_frontier):
    sc = get_scenario("calm", small_frontier.nranks)
    report = run_adaptive("allreduce", small_frontier, 65536,
                          rounds=sc.rounds)
    assert report.switches == 0
    assert report.regret == 0.0
    assert report.static_regret == 0.0
    assert report.final_choice == Choice(report.static_algorithm,
                                         report.static_k)
    assert all(r.action == "keep" for r in report.records)
    # With nothing to adapt to, the loop may not perturb a single
    # simulated number: every round is the static winner, bit for bit.
    static = repro.build("allreduce", report.static_algorithm,
                         p=small_frontier.nranks, k=report.static_k)
    plain = repro.simulate(static, small_frontier, nbytes=65536)
    assert all(r.time == plain.time for r in report.records)


def test_run_adaptive_validation(small_frontier):
    with pytest.raises(AdaptError):
        run_adaptive("allreduce", small_frontier, 65536, rounds=0)
    with pytest.raises(AdaptError):
        get_scenario("nope", small_frontier.nranks)


def _doom_scenario(nranks):
    """Every rank straggling 200x from round 0: past the abort ratio."""
    plan = FaultPlan(
        seed=0,
        stragglers=tuple(
            Straggler(rank=r, factor=200.0) for r in range(nranks)
        ),
    )
    return AdaptScenario(
        name="doom",
        description="hopeless fabric: every rank 200x slow",
        rounds=10,
        phased=PhasedFaultPlan((FaultPhase(0, plan, "doom"),)),
    )


def test_hopeless_fabric_aborts(tiny_frontier):
    sc = _doom_scenario(tiny_frontier.nranks)
    report = run_adaptive("allreduce", tiny_frontier, 4096,
                          rounds=sc.rounds, phased=sc.phased)
    assert report.aborted
    assert report.records[-1].action == "abort"
    assert len(report.records) < sc.rounds  # stopped early, no raise


# ---------------------------------------------------------------------------
# execute(adapt=...) integration
# ---------------------------------------------------------------------------


def test_execute_adapt_lockstep():
    run = repro.execute("allreduce", "recursive_doubling", p=8, count=16,
                        adapt="calm")
    assert isinstance(run, AdaptiveRun)
    assert run.choice == run.report.final_choice
    assert all(
        np.array_equal(run.run.buffers[r], run.run.expected[r])
        for r in range(8)
    )


def test_execute_adapt_threaded():
    run = repro.execute("allreduce", "recursive_doubling", p=8, count=16,
                        backend="threaded", adapt="calm")
    assert isinstance(run, AdaptiveRun)
    assert np.array_equal(run.run.buffers[0], run.run.expected[0])


def test_execute_adapt_policy_override():
    run = repro.execute("allreduce", "recursive_doubling", p=8, count=8,
                        adapt="calm",
                        adapt_policy=AdaptPolicy(max_candidates=2))
    assert run.report.policy.max_candidates == 2


def test_execute_adapt_abort_falls_back_to_callers_choice():
    run = repro.execute("allreduce", "recursive_doubling", p=8, count=8,
                        adapt=_doom_scenario(8))
    assert run.report.aborted
    assert run.choice == Choice("recursive_doubling", None)
    assert np.array_equal(run.run.buffers[0], run.run.expected[0])


def test_execute_machine_without_adapt_raises():
    with pytest.raises(ExecutionError):
        repro.execute("allreduce", "recursive_doubling", p=8, count=8,
                      machine="dragonfly-1024")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_adapt_smoke(tmp_path, capsys):
    out = tmp_path / "adapt_report.json"
    rc = cli.main_adapt(["--scenario", "calm", "--nodes", "8",
                         "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["switches"] == 0 and not doc["aborted"]
    stdout = capsys.readouterr().out
    assert "0 switch(es)" in stdout


def test_cli_adapt_bad_machine_exits_2(capsys):
    assert cli.main_adapt(["--machine", "nope-8"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_adapt_bad_policy_exits_2(capsys):
    assert cli.main_adapt(["--patience", "0"]) == 2
    assert "error:" in capsys.readouterr().err
