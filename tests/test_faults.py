"""Tests for the fault-injection subsystem (:mod:`repro.faults`).

Covers the plan's determinism contract, the lossy channel's ack/retry
protocol, the fault-aware paths of both backends (threaded transport and
simulator), the engine's enriched deadlock diagnosis, and the guarantee
the whole subsystem exists for: one :class:`~repro.faults.FaultPlan`
object means the same thing everywhere.
"""

import threading

import numpy as np
import pytest

from repro.core.registry import build_schedule
from repro.errors import ExecutionError, FaultError, MachineError, PartialFailure
from repro.faults import (
    ChannelAborted,
    ChannelBroken,
    ChannelMonitor,
    ChannelTimeout,
    Crash,
    FaultPlan,
    LinkFault,
    LossyChannel,
    RetryPolicy,
    Straggler,
    derive_rng,
)
from repro.runtime.buffers import (
    check_outputs,
    initial_buffers,
    make_inputs,
    reference_result,
)
from repro.runtime.session import Session
from repro.runtime.threaded import ThreadedTransport, execute_threaded
from repro.simnet.machines import reference
from repro.simnet.noise import NoiseModel
from repro.simnet.simulate import simulate

FAST = RetryPolicy(max_retries=8, rto=0.01, backoff=2.0, max_rto=0.08)


def _run_threaded(sched, count=64, *, faults=None, timeout=5.0):
    coll = sched.collective
    inputs = make_inputs(coll, sched.nranks, count)
    expected = reference_result(coll, inputs, count)
    bufs = initial_buffers(sched, inputs, count)
    execute_threaded(sched, bufs, timeout=timeout, faults=faults)
    check_outputs(sched, bufs, expected, count)
    return bufs


class TestRng:
    def test_deterministic(self):
        a = derive_rng(7, 1, 2, 3).random()
        b = derive_rng(7, 1, 2, 3).random()
        assert a == b

    def test_counters_matter(self):
        assert derive_rng(7, 1, 2).random() != derive_rng(7, 2, 1).random()

    def test_single_counter_matches_noise_model_stream(self):
        """NoiseModel moved onto derive_rng; the stream must not shift."""
        knuth = 2654435761
        for seed, index in [(0, 0), (3, 17), (123, 999)]:
            legacy = np.random.default_rng(
                (seed << 32) ^ (index * knuth % 2**31)
            ).random()
            assert derive_rng(seed, index).random() == legacy


class TestFaultPlan:
    def test_inactive_by_default(self):
        plan = FaultPlan()
        assert not plan.is_active
        assert not plan.has_loss

    def test_validation(self):
        with pytest.raises(MachineError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(MachineError):
            LinkFault(2, 2)
        with pytest.raises(MachineError):
            Straggler(rank=0, factor=0.5)
        with pytest.raises(MachineError):
            Crash(rank=-1, step=0)
        with pytest.raises(MachineError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(MachineError):
            FaultPlan(crashes=(Crash(0, 1), Crash(0, 2)))
        with pytest.raises(MachineError):
            FaultPlan(links=(LinkFault(0, 1), LinkFault(0, 1)))

    def test_decisions_are_deterministic(self):
        plan = FaultPlan(drop_rate=0.3, dup_rate=0.2, delay_rate=0.5, seed=11)
        again = FaultPlan(drop_rate=0.3, dup_rate=0.2, delay_rate=0.5, seed=11)
        for seq in range(50):
            assert plan.drops(0, 1, seq, 0) == again.drops(0, 1, seq, 0)
            assert plan.duplicates(0, 1, seq) == again.duplicates(0, 1, seq)
            assert plan.delay(0, 1, seq) == again.delay(0, 1, seq)

    def test_seed_changes_decisions(self):
        a = FaultPlan(drop_rate=0.5, seed=0)
        b = FaultPlan(drop_rate=0.5, seed=1)
        fates = [
            (a.drops(0, 1, s, 0), b.drops(0, 1, s, 0)) for s in range(64)
        ]
        assert any(x != y for x, y in fates)

    def test_rate_extremes_short_circuit(self):
        dead = FaultPlan(drop_rate=1.0, seed=0)
        clean = FaultPlan(dup_rate=0.0, drop_rate=0.0, delay_rate=1.0, seed=0)
        assert all(dead.drops(0, 1, s, 0) for s in range(16))
        assert not any(clean.drops(0, 1, s, 0) for s in range(16))
        assert clean.delay(0, 1, 0) == clean.delay_factor

    def test_link_rates_combine_independently(self):
        plan = FaultPlan(
            drop_rate=0.5, seed=0, links=(LinkFault(0, 1, drop_rate=0.5),)
        )
        drop, _ = plan._rates(0, 1)
        assert drop == pytest.approx(0.75)
        drop_other, _ = plan._rates(1, 0)
        assert drop_other == 0.5

    def test_attempts_needed(self):
        plan = FaultPlan(
            seed=0,
            links=(LinkFault(0, 1, drop_rate=1.0),),
            retry=RetryPolicy(max_retries=3, rto=0.01),
        )
        assert plan.attempts_needed(0, 1, 0) is None
        assert plan.attempts_needed(1, 0, 0) == 0

    def test_rto_backoff_capped(self):
        pol = RetryPolicy(max_retries=10, rto=0.01, backoff=2.0, max_rto=0.05)
        assert pol.rto_after(0) == pytest.approx(0.01)
        assert pol.rto_after(1) == pytest.approx(0.02)
        assert pol.rto_after(10) == pytest.approx(0.05)

    def test_describe_mentions_everything(self):
        text = FaultPlan(
            drop_rate=0.1,
            stragglers=(Straggler(1, 4.0),),
            crashes=(Crash(2, 0),),
        ).describe()
        assert "drop" in text and "straggler" in text and "crash" in text


class TestLossyChannel:
    def test_reliable_fifo(self):
        ch = LossyChannel(0, 1)
        for i in range(5):
            ch.send(i)
        got = [ch.recv(1.0) for _ in range(5)]
        assert got == list(range(5))
        assert ch.undelivered() == 0

    def test_timeout_and_abort(self):
        ch = LossyChannel(0, 1, poll_slice=0.01)
        with pytest.raises(ChannelTimeout):
            ch.recv(0.05)
        abort = threading.Event()
        abort.set()
        with pytest.raises(ChannelAborted):
            ch.recv(5.0, abort=abort)

    def test_duplicates_are_deduplicated(self):
        plan = FaultPlan(dup_rate=1.0, seed=0, retry=FAST)
        ch = LossyChannel(0, 1, plan)
        for i in range(4):
            ch.send(i)
        assert [ch.recv(1.0) for _ in range(4)] == [0, 1, 2, 3]
        with pytest.raises(ChannelTimeout):
            ch.recv(0.05)  # the extra copies must not surface

    def test_monitor_recovers_drops(self):
        plan = FaultPlan(drop_rate=0.5, seed=3, retry=FAST)
        ch = LossyChannel(0, 1, plan)
        monitor = ChannelMonitor([ch])
        monitor.start()
        try:
            for i in range(20):
                ch.send(i)
            got = [ch.recv(5.0) for _ in range(20)]
        finally:
            monitor.stop()
        assert got == list(range(20))
        assert ch.failure is None
        assert ch.retransmissions > 0

    def test_retry_exhaustion_breaks_channel(self):
        plan = FaultPlan(
            drop_rate=1.0, seed=0, retry=RetryPolicy(max_retries=2, rto=0.005)
        )
        ch = LossyChannel(0, 1, plan)
        failures = []
        monitor = ChannelMonitor([ch], on_failure=failures.append)
        monitor.start()
        try:
            ch.send("doomed")
            with pytest.raises(ChannelBroken) as exc_info:
                ch.recv(5.0)
        finally:
            monitor.stop()
        failure = exc_info.value.failure
        assert failure.src == 0 and failure.dst == 1
        assert failure.seq == 0
        assert failure.attempts == 3  # initial + 2 retries
        assert failures and failures[0] == failure


class TestThreadedFaults:
    def test_lossy_run_matches_fault_free(self):
        sched = build_schedule("allreduce", "recursive_multiplying", 8, k=2)
        plan = FaultPlan(drop_rate=0.15, dup_rate=0.1, seed=5, retry=FAST)
        _run_threaded(sched, faults=plan)

    def test_straggler_and_delay_do_not_corrupt(self):
        sched = build_schedule("allgather", "kring", 6, k=2)
        plan = FaultPlan(
            delay_rate=0.3,
            seed=2,
            stragglers=(Straggler(rank=3, factor=10.0),),
            retry=FAST,
        )
        _run_threaded(sched, faults=plan)

    def test_dead_link_raises_structured_partial_failure(self):
        sched = build_schedule("allreduce", "recursive_doubling", 4)
        plan = FaultPlan(
            seed=0,
            links=(LinkFault(0, 1, drop_rate=1.0),),
            retry=RetryPolicy(max_retries=2, rto=0.005, max_rto=0.02),
        )
        bufs = initial_buffers(
            sched, make_inputs("allreduce", 4, 32), 32
        )
        with pytest.raises(PartialFailure) as exc_info:
            execute_threaded(sched, bufs, timeout=5.0, faults=plan)
        failure = exc_info.value
        assert failure.failed_ranks
        assert failure.faults
        diag = failure.faults[0]
        assert diag.kind == "retries_exhausted"
        assert diag.peer == 0
        assert diag.rank == 1
        assert diag.retries == 3
        assert "retries_exhausted" in diag.diagnosis()

    def test_crash_raises_structured_partial_failure(self):
        sched = build_schedule("allreduce", "recursive_doubling", 8)
        plan = FaultPlan(seed=0, crashes=(Crash(rank=5, step=1),), retry=FAST)
        bufs = initial_buffers(
            sched, make_inputs("allreduce", 8, 32), 32
        )
        with pytest.raises(PartialFailure) as exc_info:
            execute_threaded(sched, bufs, timeout=5.0, faults=plan)
        failure = exc_info.value
        assert failure.failed_ranks == (5,)
        assert failure.faults[0].kind == "crash"
        assert failure.faults[0].step == 1

    def test_fault_free_plan_is_a_no_op(self):
        sched = build_schedule("bcast", "knomial", 5, k=3)
        transport = ThreadedTransport(sched, faults=FaultPlan())
        assert transport.faults is None

    def test_same_seed_same_retransmission_pattern(self):
        sched = build_schedule("allreduce", "ring", 6)
        counts = []
        for _ in range(2):
            plan = FaultPlan(drop_rate=0.3, seed=9, retry=FAST)
            transport = ThreadedTransport(sched, timeout=5.0, faults=plan)
            bufs = initial_buffers(
                sched, make_inputs("allreduce", 6, 24), 24
            )
            transport.run(bufs)
            counts.append(
                sorted(
                    (src, dst, ch._send_seq)
                    for (src, dst), ch in transport._channels.items()
                )
            )
        # Drop decisions are (link, seq, attempt)-pure: both runs push the
        # same message counts through every channel.
        assert counts[0] == counts[1]


class TestSimulatorFaults:
    def test_drops_add_latency_deterministically(self):
        sched = build_schedule("allreduce", "recursive_multiplying", 8, k=2)
        machine = reference(8)
        base = simulate(sched, machine, 1 << 12)
        times = set()
        for _ in range(3):
            res = simulate(
                sched,
                machine,
                1 << 12,
                faults=FaultPlan(drop_rate=0.2, seed=4, retry=FAST),
            )
            assert res.complete
            assert res.retransmissions > 0
            times.add(res.time)
        assert len(times) == 1
        assert times.pop() > base.time

    def test_crash_yields_partial_completion(self):
        sched = build_schedule("allreduce", "recursive_doubling", 8)
        res = simulate(
            sched,
            reference(8),
            1 << 10,
            faults=FaultPlan(seed=0, crashes=(Crash(rank=3, step=1),)),
        )
        assert not res.complete
        assert res.failed_ranks == (3,)
        assert res.stalled_ranks  # peers of rank 3 block forever
        assert np.isinf(res.rank_times[3])

    def test_dead_link_stalls_instead_of_deadlocking(self):
        sched = build_schedule("allreduce", "ring", 6)
        res = simulate(
            sched,
            reference(6),
            1 << 10,
            faults=FaultPlan(
                seed=0,
                links=(LinkFault(0, 1, drop_rate=1.0),),
                retry=RetryPolicy(max_retries=2, rto=0.005, max_rto=0.02),
            ),
        )
        assert not res.complete
        assert res.stalled_ranks

    def test_straggler_slows_completion(self):
        sched = build_schedule("allgather", "ring", 8)
        machine = reference(8)
        base = simulate(sched, machine, 1 << 12)
        slow = simulate(
            sched,
            machine,
            1 << 12,
            faults=FaultPlan(seed=0, stragglers=(Straggler(0, 20.0),)),
        )
        assert slow.complete
        assert slow.time > base.time

    def test_noise_composes_with_faults(self):
        sched = build_schedule("allreduce", "ring", 4)
        res = simulate(
            sched,
            reference(4),
            1 << 10,
            noise=NoiseModel(sigma=0.2, seed=1),
            faults=FaultPlan(drop_rate=0.1, seed=1, retry=FAST),
        )
        assert res.complete


class TestSessionFaults:
    def test_lossy_session_matches_fault_free(self):
        plan = FaultPlan(drop_rate=0.1, dup_rate=0.05, seed=7, retry=FAST)

        def job(comm):
            return comm.allreduce(np.full(32, float(comm.rank + 1)))

        clean = Session(4).run(job)
        lossy = Session(4, faults=plan).run(job)
        for a, b in zip(clean, lossy):
            np.testing.assert_array_equal(a, b)

    def test_session_crash_is_structured(self):
        plan = FaultPlan(seed=1, crashes=(Crash(rank=2, step=0),), retry=FAST)

        def job(comm):
            return comm.allreduce(np.ones(8))

        with pytest.raises(PartialFailure) as exc_info:
            Session(4, faults=plan).run(job)
        assert exc_info.value.failed_ranks == (2,)
        assert exc_info.value.faults[0].kind == "crash"


class TestOnePlanBothBackends:
    def test_drop_decisions_agree_across_backends(self):
        """The acceptance criterion: one FaultPlan object drives both the
        simulator and the threaded transport, and because fates are pure
        functions of (link, seq, attempt), a message doomed in one backend
        is doomed in the other."""
        plan = FaultPlan(
            seed=0,
            links=(LinkFault(0, 1, drop_rate=1.0),),
            retry=RetryPolicy(max_retries=1, rto=0.005, max_rto=0.01),
        )
        sched = build_schedule("allreduce", "recursive_doubling", 4)

        sim_res = simulate(sched, reference(4), 1 << 10, faults=plan)
        assert not sim_res.complete

        bufs = initial_buffers(sched, make_inputs("allreduce", 4, 16), 16)
        with pytest.raises(PartialFailure):
            execute_threaded(sched, bufs, timeout=5.0, faults=plan)

    def test_maskable_plan_completes_on_both_backends(self):
        plan = FaultPlan(drop_rate=0.1, dup_rate=0.1, seed=2, retry=FAST)
        sched = build_schedule("allgather", "knomial", 8, k=4)
        sim_res = simulate(sched, reference(8), 1 << 10, faults=plan)
        assert sim_res.complete
        _run_threaded(sched, faults=plan)
