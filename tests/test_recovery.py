"""Unit and integration tests for the self-healing layer (repro.recovery).

Covers the detector's edge cases (failure on the final step, simultaneous
multi-rank crashes, spurious suspicions cancelled by late heartbeats),
the blame semantics shared by both backends, the shrink/substitute
plumbing, and end-to-end recovery on both the threaded transport and the
simulator — including the bitwise-correctness contract over survivors.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import ExecutionError, FaultError, RecoveryError
from repro.faults.plan import Crash, FaultPlan, LinkFault, RetryPolicy
from repro.recovery import (
    HeartbeatDetector,
    RecoveryPolicy,
    RecoveryRun,
    elect_root,
    execute_with_recovery,
    failures_from,
    normalize_policy,
    shrink_machine,
    shrink_plan,
    simulate_with_recovery,
    simulated_failures,
    substitute_plan,
    suspects_of,
)
from repro.simnet.machines import frontier, reference

#: Fast retry budget so detection happens in milliseconds, not seconds.
FAST = RetryPolicy(max_retries=3, rto=0.01, backoff=2.0, max_rto=0.04)


def crash_plan(rank: int = 1, step: int = 1, seed: int = 0) -> FaultPlan:
    return FaultPlan(seed=seed, crashes=(Crash(rank=rank, step=step),),
                     retry=FAST)


class TestHeartbeatDetector:
    def test_silence_past_timeout_is_suspected(self):
        det = HeartbeatDetector(4, timeout=1.0, now=0.0)
        det.heartbeat(0, 1.0)
        fresh = det.poll(1.6)
        assert [f.rank for f in fresh] == [1, 2, 3]
        assert det.alive() == (0,)
        # Polling again reports nothing new.
        assert det.poll(1.7) == []

    def test_late_heartbeat_cancels_spurious_suspicion(self):
        """The eventually-perfect compromise: suspicion is revocable."""
        det = HeartbeatDetector(2, timeout=1.0, now=0.0)
        assert [f.rank for f in det.poll(2.0)] == [0, 1]
        assert det.cancellations == 0
        # Rank 1 was merely slow; its next beat clears the suspicion.
        assert det.heartbeat(1, 2.1, step=3) is True
        assert det.cancellations == 1
        assert det.alive() == (1,)
        assert [f.rank for f in det.suspects()] == [0]
        # A beat from an unsuspected rank cancels nothing.
        assert det.heartbeat(1, 2.2) is False
        assert det.cancellations == 1

    def test_confirmed_failure_is_final(self):
        det = HeartbeatDetector(3, timeout=1.0, now=0.0)
        det.confirm(2, kind="crash", step=4, peer=0, now=5.0)
        # No heartbeat resurrects a confirmed failure.
        assert det.heartbeat(2, 6.0) is False
        assert [f.rank for f in det.confirmed()] == [2]
        assert det.alive() == (0, 1)
        # And poll never re-suspects it.
        assert all(f.rank != 2 for f in det.poll(100.0))

    def test_failure_during_final_step(self):
        """A rank that beat on every step but the last is still caught."""
        det = HeartbeatDetector(2, timeout=1.0, now=0.0)
        last_step = 7
        for step in range(last_step):
            det.heartbeat(0, 0.1 * step, step=step)
            det.heartbeat(1, 0.1 * step, step=step)
        # Rank 0 finishes the last step and keeps beating; rank 1 dies
        # executing it: silence, then a suspicion that remembers the last
        # step it was seen alive at.
        det.heartbeat(0, 1.7, step=last_step)
        (failure,) = det.poll(1.8)
        assert failure.rank == 1
        assert failure.kind == "heartbeat"
        assert failure.step == last_step - 1

    def test_simultaneous_multi_rank_crashes(self):
        det = HeartbeatDetector(6, timeout=1.0, now=0.0)
        det.confirm(4, kind="crash", step=2, now=3.0)
        det.confirm(1, kind="crash", step=2, now=3.0)
        assert [f.rank for f in det.confirmed()] == [1, 4]
        assert det.alive() == (0, 2, 3, 5)

    def test_constructor_and_range_validation(self):
        with pytest.raises(ExecutionError):
            HeartbeatDetector(0, timeout=1.0)
        with pytest.raises(ExecutionError):
            HeartbeatDetector(4, timeout=0.0)
        det = HeartbeatDetector(4, timeout=1.0)
        with pytest.raises(ExecutionError):
            det.heartbeat(4, 0.0)


class TestBlameSemantics:
    def test_crash_blames_the_crashed_rank(self):
        faults = [FaultError("died", kind="crash", rank=3, step=2)]
        assert suspects_of(faults) == (3,)
        (failure,) = failures_from(faults)
        assert (failure.rank, failure.kind, failure.step) == (3, "crash", 2)

    def test_exhausted_retries_blame_the_peer(self):
        """ULFM: a dead link is indistinguishable from a dead sender."""
        faults = [FaultError("gave up", kind="retries_exhausted",
                             rank=5, step=1, peer=0, retries=4)]
        assert suspects_of(faults) == (0,)
        (failure,) = failures_from(faults, detected_at=9.0)
        assert failure.rank == 0
        assert failure.peer == 5  # the observer
        assert failure.detected_at == 9.0

    def test_first_observation_wins_and_dedup(self):
        faults = [
            FaultError("a", kind="crash", rank=2, step=1),
            FaultError("b", kind="timeout", rank=2, step=3),
            FaultError("c", kind="crash", rank=1, step=1),
        ]
        assert suspects_of(faults) == (1, 2)
        failures = failures_from(faults)
        assert [f.rank for f in failures] == [1, 2]
        assert failures[1].kind == "crash"  # not the later timeout

    def test_simulated_detector_matches_plan(self):
        sched = repro.build("allreduce", "knomial", p=8, k=2)
        failures, degraded = simulated_failures(sched, crash_plan(rank=1))
        assert [f.rank for f in failures] == [1]
        assert failures[0].kind == "crash"
        assert degraded == ()

    def test_simulated_detector_reports_degraded_links(self):
        sched = repro.build("allreduce", "knomial", p=8, k=2)
        plan = FaultPlan(
            seed=0,
            links=(LinkFault(0, 1, delay_factor=5.0),
                   LinkFault(0, 7, drop_rate=1.0)),
            retry=FAST,
        )
        failures, degraded = simulated_failures(sched, plan)
        # The slow link is degraded, not dead; the 100%-loss link kills
        # messages only if the schedule uses that edge.
        assert [(d.src, d.dst) for d in degraded] == [(0, 1)]
        assert all(f.kind in ("crash", "retries_exhausted")
                   for f in failures)


class TestShrinkPlumbing:
    def test_shrink_plan_remaps_and_drops(self):
        plan = FaultPlan(
            seed=3,
            drop_rate=0.1,
            crashes=(Crash(rank=1, step=0), Crash(rank=5, step=2)),
            stragglers=(),
            links=(LinkFault(1, 2, drop_rate=0.5),
                   LinkFault(3, 5, dup_rate=0.2)),
        )
        # Rank 1 died; survivors renumber 0,2,3,4,5 -> 0,1,2,3,4.
        shrunk = shrink_plan(plan, [0, 2, 3, 4, 5])
        assert shrunk.seed == 3 and shrunk.drop_rate == 0.1
        assert [(c.rank, c.step) for c in shrunk.crashes] == [(4, 2)]
        assert [(lf.src, lf.dst) for lf in shrunk.links] == [(2, 4)]
        assert shrink_plan(None, [0, 1]) is None

    def test_substitute_plan_keeps_rank_space(self):
        plan = FaultPlan(
            seed=0,
            crashes=(Crash(rank=1, step=1), Crash(rank=3, step=2)),
            links=(LinkFault(1, 2, drop_rate=1.0),),
        )
        # A spare adopted slot 1: its crash and its link faults are spent;
        # slot 3's crash still pends, unrenumbered.
        sub = substitute_plan(plan, [1])
        assert [(c.rank, c.step) for c in sub.crashes] == [(3, 2)]
        assert sub.links == ()
        assert substitute_plan(None, [0]) is None

    def test_elect_root(self):
        assert elect_root(2, [0, 2, 3]) == (1, True)
        assert elect_root(1, [0, 2, 3]) == (0, False)

    def test_shrink_machine_keeps_fabric(self):
        m = reference(8)
        assert shrink_machine(m, 8) is m
        assert shrink_machine(m, 7).nranks == 7
        # No dragonfly layer: whole-node shrink keeps the ppn geometry.
        flat = m.with_(nodes=4, ppn=2)
        shrunk = shrink_machine(flat, 6)
        assert (shrunk.nranks, shrunk.ppn) == (6, 2)
        # Frontier's dragonfly groups stop filling after the shrink, so
        # it falls back to the conservative all-internode layout.
        packed = frontier(4, 2)  # 8 ranks, ppn=2, 4-node groups
        shrunk = shrink_machine(packed, 6)
        assert (shrunk.nranks, shrunk.ppn) == (6, 1)
        assert shrunk.dragonfly is None
        assert shrink_machine(packed, 7).nranks == 7  # odd -> ppn=1 path

    def test_policy_validation_and_normalize(self):
        assert normalize_policy(None) is None
        assert normalize_policy("shrink").mode == "shrink"
        p = RecoveryPolicy(mode="spare", spares=4)
        assert normalize_policy(p) is p
        with pytest.raises(ExecutionError):
            RecoveryPolicy(mode="resurrect")
        with pytest.raises(ExecutionError):
            RecoveryPolicy(max_rounds=0)
        with pytest.raises(ExecutionError):
            RecoveryPolicy(mode="spare", spares=-1)


class TestThreadedRecovery:
    def test_shrink_heals_a_crash_bitwise_exact(self):
        run = execute_with_recovery(
            "allreduce", "knomial", p=8, count=64, k=2, backend="threaded",
            recovery="shrink", faults=crash_plan(rank=1), timeout=5.0,
        )
        assert isinstance(run, RecoveryRun)
        assert run.report.recovered
        assert run.report.nrounds == 2
        assert run.slots == (0, 2, 3, 4, 5, 6, 7)
        assert run.slots == run.survivors
        # Bitwise-correct over the survivor group: the shrunk collective
        # over the survivors' original inputs, to the last bit.
        for local in range(run.schedule.nranks):
            assert np.array_equal(run.buffers[local], run.expected[local])
        expected_sum = sum(run.inputs[local] for local in
                           range(run.schedule.nranks))
        assert np.array_equal(run.buffers[0], expected_sum)

    def test_spare_substitutes_and_keeps_group_size(self):
        run = execute_with_recovery(
            "allreduce", "knomial", p=8, count=32, k=2, backend="threaded",
            recovery=RecoveryPolicy(mode="spare", spares=2),
            faults=crash_plan(rank=1), timeout=5.0,
        )
        assert run.report.recovered
        assert run.slots == tuple(range(8))  # same contributors
        assert run.hosts == (0, 8, 2, 3, 4, 5, 6, 7)  # fresh process
        for local in range(8):
            assert np.array_equal(run.buffers[local], run.expected[local])

    def test_abort_policy_raises_with_report(self):
        with pytest.raises(RecoveryError) as info:
            execute_with_recovery(
                "allreduce", "knomial", p=8, count=32, k=2, backend="threaded",
                recovery="abort", faults=crash_plan(rank=1), timeout=5.0,
            )
        report = info.value.report
        assert report is not None and not report.recovered
        assert report.nrounds == 1
        assert [f.rank for f in report.failures] == [1]

    def test_dead_bcast_root_unrecoverable_by_shrink(self):
        with pytest.raises(RecoveryError, match="spare"):
            execute_with_recovery(
                "bcast", "knomial", p=8, count=32, k=2, backend="threaded",
                recovery="shrink", faults=crash_plan(rank=0, step=1),
                timeout=5.0,
            )

    def test_dead_bcast_root_healed_by_spare(self):
        run = execute_with_recovery(
            "bcast", "knomial", p=8, count=32, k=2, backend="threaded",
            recovery=RecoveryPolicy(mode="spare", spares=1),
            faults=crash_plan(rank=0, step=1), timeout=5.0,
        )
        assert run.report.recovered
        assert run.hosts[0] == 8  # the spare adopted the root's slot
        for local in range(8):
            assert np.array_equal(run.buffers[local], run.expected[local])

    def test_facade_execute_recovery_kwarg(self):
        run = repro.execute(
            "allreduce", "knomial", p=8, count=64, k=2,
            backend="threaded", faults=crash_plan(rank=1),
            recovery="shrink", timeout=5.0,
        )
        assert isinstance(run, RecoveryRun)
        assert run.report.recovered

    def test_clean_run_is_one_round(self):
        run = execute_with_recovery(
            "allreduce", "knomial", p=8, count=64, k=2, backend="threaded",
            recovery="shrink", timeout=5.0,
        )
        assert run.report.recovered
        assert run.report.nrounds == 1
        assert run.report.time_to_recovery == 0.0



class TestRecoveryRoundIsThePlainRun:
    """A fault-free recovered run is one round of ``repro.execute``'s
    own pipeline: same schedule, inputs, buffers and reference."""

    @pytest.mark.parametrize("backend", repro.BACKENDS)
    @pytest.mark.parametrize("coll,alg,k,root", [
        ("allreduce", "knomial", 3, 0),
        ("bcast", "knomial", 2, 4),
        ("gather", "binomial", None, 1),
        ("reduce_scatter", "kring", 2, 0),
    ])
    def test_fault_free_recovery_equals_plain(self, backend, coll, alg, k,
                                              root):
        kwargs = dict(p=6, count=23, k=k, root=root, backend=backend,
                      seed=11)
        plain = repro.execute(coll, alg, **kwargs)
        healed = execute_with_recovery(coll, alg, recovery="shrink",
                                       **kwargs)
        assert healed.report.nrounds == 1
        assert healed.schedule == plain.schedule
        for got, want in zip(healed.inputs, plain.inputs):
            assert np.array_equal(got, want)
        for got, want in zip(healed.buffers, plain.buffers):
            assert np.array_equal(got, want)
        assert healed.expected.keys() == plain.expected.keys()
        for rank, want in plain.expected.items():
            assert np.array_equal(healed.expected[rank], want)

class TestSimRecovery:
    def test_crash_heals_and_charges_detection(self):
        machine = reference(8)
        res = simulate_with_recovery(
            "allreduce", "knomial", machine, 65536, k=2,
            recovery="shrink", faults=crash_plan(rank=1),
        )
        assert res.recovered
        assert res.rounds == 2
        assert res.survivors == (0, 2, 3, 4, 5, 6, 7)
        assert res.time_to_recovery_us > 0
        assert res.time_us > res.post_recovery_us
        # Two distinct schedules were built: p=8 then p=7.
        fps = res.report.fingerprints()
        assert len(fps) == 2 and fps[0] != fps[1]

    def test_unrecoverable_surrenders_without_raising(self):
        res = simulate_with_recovery(
            "bcast", "knomial", reference(8), 65536, k=2,
            recovery="shrink", faults=crash_plan(rank=0, step=1),
        )
        assert not res.recovered
        assert res.result is None

    def test_abort_policy_surrenders(self):
        res = simulate_with_recovery(
            "allreduce", "knomial", reference(8), 65536, k=2,
            recovery="abort", faults=crash_plan(rank=1),
        )
        assert not res.recovered and res.rounds == 1

    def test_spare_mode_keeps_size(self):
        res = simulate_with_recovery(
            "allreduce", "knomial", reference(8), 65536, k=2,
            recovery=RecoveryPolicy(mode="spare", spares=8),
            faults=crash_plan(rank=1),
        )
        assert res.recovered
        assert res.survivors == (0, 8, 2, 3, 4, 5, 6, 7)
        fps = res.report.fingerprints()
        assert len(fps) == 2 and fps[0] == fps[1]  # same p, same schedule
