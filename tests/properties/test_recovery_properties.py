"""Determinism properties of the recovery layer.

The recovery loop's whole value rests on being replayable: the same
seeded :class:`~repro.faults.plan.FaultPlan` must produce the same
survivor set, the same rebuilt schedules (pinned by content-hash
fingerprint), and — for the simulated path and the recovery sweep — the
same numbers to the last bit, serially or fanned out over worker
processes.  These tests pin each of those contracts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.recovery import run_recovery_sweep
from repro.faults.plan import Crash, FaultPlan, LinkFault, RetryPolicy
from repro.recovery import (
    RecoveryPolicy,
    execute_with_recovery,
    simulate_with_recovery,
)
from repro.simnet.machines import reference
from repro.simnet.simulate import simulate
import repro

FAST = RetryPolicy(max_retries=3, rto=0.01, backoff=2.0, max_rto=0.04)

PLANS = [
    pytest.param(
        FaultPlan(seed=7, crashes=(Crash(rank=1, step=1),), retry=FAST),
        id="one-crash",
    ),
    pytest.param(
        FaultPlan(
            seed=11,
            crashes=(Crash(rank=2, step=0), Crash(rank=5, step=2)),
            retry=FAST,
        ),
        id="two-crashes",
    ),
    pytest.param(
        FaultPlan(
            seed=3,
            links=(LinkFault(3, 4, drop_rate=1.0),),
            retry=FAST,
        ),
        id="dead-link",
    ),
]


def sim_signature(plan, *, recovery="shrink"):
    res = simulate_with_recovery(
        "allreduce", "knomial", reference(8), 65536, k=2,
        recovery=recovery, faults=plan,
    )
    return (
        res.recovered,
        res.rounds,
        res.survivors,
        res.report.fingerprints(),
        res.time,
        res.time_to_recovery,
        res.post_recovery_time,
    )


class TestSeededDeterminism:
    @pytest.mark.parametrize("plan", PLANS)
    def test_sim_recovery_replays_bit_identically(self, plan):
        assert sim_signature(plan) == sim_signature(plan)

    @pytest.mark.parametrize("plan", PLANS)
    def test_threaded_recovery_same_survivors_and_schedules(self, plan):
        """Wall-clock detection timing varies; who survives and what gets
        rebuilt must not."""
        runs = [
            execute_with_recovery(
                "allreduce", "knomial", p=8, count=32, k=2, backend="threaded",
                recovery="shrink", faults=plan, timeout=5.0,
            )
            for _ in range(2)
        ]
        a, b = runs
        assert a.slots == b.slots
        assert a.hosts == b.hosts
        assert a.report.fingerprints() == b.report.fingerprints()
        assert [f.rank for f in a.report.failures] == [
            f.rank for f in b.report.failures
        ]
        for x, y in zip(a.buffers, b.buffers):
            assert np.array_equal(x, y)

    def test_threaded_and_sim_agree_on_survivors(self):
        plan = FaultPlan(seed=7, crashes=(Crash(rank=1, step=1),),
                         retry=FAST)
        run = execute_with_recovery(
            "allreduce", "knomial", p=8, count=32, k=2, backend="threaded",
            recovery="shrink", faults=plan, timeout=5.0,
        )
        res = simulate_with_recovery(
            "allreduce", "knomial", reference(8), 65536, k=2,
            recovery="shrink", faults=plan,
        )
        assert run.slots == res.survivors
        assert run.report.fingerprints() == res.report.fingerprints()


class TestSweepJobsInvariance:
    def test_recovery_sweep_bit_identical_across_jobs(self):
        machine = reference(8)
        serial = run_recovery_sweep(machine, nbytes=4096, seed=5, jobs=0)
        fanned = run_recovery_sweep(machine, nbytes=4096, seed=5, jobs=2)
        assert len(serial) == len(fanned)
        # Records are frozen dataclasses of simulated quantities only, so
        # equality here is bit-equality of every float.
        assert serial == fanned

    def test_recovery_sweep_replays_identically(self):
        machine = reference(8)
        a = run_recovery_sweep(machine, nbytes=4096, seed=5, jobs=0)
        b = run_recovery_sweep(machine, nbytes=4096, seed=5, jobs=0)
        assert a == b


class TestRecoveryOffCostsNothing:
    def test_no_fault_wrapper_time_equals_plain_simulate(self):
        """With nothing to heal, the recovery wrapper is the plain
        simulation: one round, identical time, zero recovery cost."""
        machine = reference(8)
        for coll, alg, k in [
            ("allreduce", "knomial", 2),
            ("allgather", "kring", 3),
            ("bcast", "recursive_multiplying", 2),
        ]:
            sched = repro.build(coll, alg, p=8, k=k)
            plain = simulate(sched, machine, 65536)
            wrapped = simulate_with_recovery(
                coll, alg, machine, 65536, k=k, recovery="shrink",
            )
            assert wrapped.rounds == 1
            assert wrapped.time == plain.time
            assert wrapped.time_to_recovery == 0.0
            assert wrapped.recovered

    def test_inert_plan_is_one_clean_round(self):
        res = simulate_with_recovery(
            "allreduce", "knomial", reference(8), 65536, k=2,
            recovery=RecoveryPolicy(mode="shrink"),
            faults=FaultPlan(seed=0),
        )
        assert res.rounds == 1 and res.recovered
