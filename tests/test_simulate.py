"""Tests for the network simulator (:mod:`repro.simnet.simulate`).

Small hand-checkable schedules with analytically known completion times,
plus behavioural checks for each modeled hardware feature: port
serialization, latency pipelining, intranode links, reduction compute,
dragonfly adders, and noise determinism.
"""

import pytest

from repro.core.registry import build_schedule
from repro.errors import MachineError
from repro.simnet.machine import DragonflySpec, MachineSpec
from repro.simnet.machines import frontier, reference
from repro.simnet.noise import NoiseModel
from repro.simnet.simulate import simulate, traffic_summary
from oracle import RankProgram, RecvOp, SendOp, from_programs, programs_of

ALPHA = 1e-6
BETA = 1e-9  # 1 ns per byte


def flat_machine(p, **overrides):
    """1 rank/node machine with trivial constants for exact arithmetic."""
    spec = dict(
        name="flat",
        nodes=p,
        ppn=1,
        alpha_inter=ALPHA,
        beta_inter=BETA,
        nic_ports=1,
        port_msg_overhead=0.0,
        alpha_intra=ALPHA,
        beta_intra=BETA,
        injection_overhead=0.0,
        gamma=0.0,
    )
    spec.update(overrides)
    return MachineSpec(**spec)


def ptp_schedule(collective="bcast"):
    """One message, rank 0 → rank 1."""
    p0 = RankProgram(rank=0)
    p0.add(SendOp(peer=1, blocks=(0,)))
    p1 = RankProgram(rank=1)
    p1.add(RecvOp(peer=0, blocks=(0,)))
    return from_programs(
        collective=collective, algorithm="ptp", nranks=2, nblocks=1,
        programs=[p0, p1], root=0,
    )


def fanout_schedule(fanout):
    """Rank 0 sends the whole buffer to `fanout` peers in ONE step."""
    p0 = RankProgram(rank=0)
    p0.add(*[SendOp(peer=i, blocks=(0,)) for i in range(1, fanout + 1)])
    progs = [p0]
    for i in range(1, fanout + 1):
        pr = RankProgram(rank=i)
        pr.add(RecvOp(peer=0, blocks=(0,)))
        progs.append(pr)
    return from_programs(
        collective="bcast", algorithm="fanout", nranks=fanout + 1,
        nblocks=1, programs=progs, root=0,
    )


class TestPointToPoint:
    def test_alpha_beta_cost(self):
        res = simulate(ptp_schedule(), flat_machine(2), 1000)
        assert res.time == pytest.approx(ALPHA + 1000 * BETA)

    def test_zero_bytes_costs_alpha(self):
        res = simulate(ptp_schedule(), flat_machine(2), 0)
        assert res.time == pytest.approx(ALPHA)

    def test_injection_overhead_charged_per_post(self):
        m = flat_machine(2, injection_overhead=1e-7)
        res = simulate(ptp_schedule(), m, 0)
        # one send post + one recv post, both before transfer can start
        assert res.time == pytest.approx(1e-7 + ALPHA)

    def test_reduce_adds_gamma(self):
        p1 = RankProgram(rank=1)
        p1.add(RecvOp(peer=0, blocks=(0,), reduce=True))
        sched = ptp_schedule("reduce")
        sched = from_programs(
            sched.collective, sched.algorithm, 2, sched.nblocks,
            [programs_of(sched)[0], p1], root=sched.root, k=sched.k,
            meta=sched.meta,
        )
        m = flat_machine(2, gamma=2e-9)
        res = simulate(sched, m, 1000)
        assert res.time == pytest.approx(ALPHA + 1000 * BETA + 1000 * 2e-9)


class TestPortModel:
    def test_single_port_serializes_bandwidth_but_pipelines_alpha(self):
        """Eq. (3)'s per-level cost: fanout k-1 over one port is
        α + (k-1)·n·β, not (k-1)·(α + n·β)."""
        n = 10_000
        res = simulate(fanout_schedule(3), flat_machine(4), n)
        assert res.time == pytest.approx(3 * n * BETA + ALPHA)

    def test_multiple_ports_stream_in_parallel(self):
        n = 10_000
        res = simulate(fanout_schedule(3), flat_machine(4, nic_ports=4), n)
        assert res.time == pytest.approx(n * BETA + ALPHA)

    def test_wave_quantization(self):
        """5 messages over 2 ports = 3 bandwidth waves."""
        n = 10_000
        res = simulate(fanout_schedule(5), flat_machine(6, nic_ports=2), n)
        assert res.time == pytest.approx(3 * n * BETA + ALPHA)

    def test_port_msg_overhead_charged_per_message(self):
        m = flat_machine(4, port_msg_overhead=1e-7)
        res = simulate(fanout_schedule(3), m, 0)
        assert res.time == pytest.approx(3 * 1e-7 + ALPHA)


class TestIntranode:
    def test_intranode_uses_intra_constants(self):
        m = MachineSpec(
            name="two-on-one", nodes=1, ppn=2,
            alpha_inter=ALPHA, beta_inter=BETA,
            alpha_intra=ALPHA / 10, beta_intra=BETA / 10,
        )
        res = simulate(ptp_schedule(), m, 1000)
        assert res.time == pytest.approx(ALPHA / 10 + 1000 * BETA / 10)
        assert res.intra_messages == 1
        assert res.inter_messages == 0

    def test_shared_fabric_contends(self):
        m = MachineSpec(
            name="narrow-fabric", nodes=1, ppn=4,
            alpha_inter=ALPHA, beta_inter=BETA,
            alpha_intra=ALPHA, beta_intra=BETA,
            intra_kind="shared", intra_channels=1,
        )
        n = 10_000
        res = simulate(fanout_schedule(3), m, n)
        assert res.time == pytest.approx(3 * n * BETA + ALPHA)

    def test_dedicated_fabric_does_not_contend(self):
        m = MachineSpec(
            name="wide-fabric", nodes=1, ppn=4,
            alpha_inter=ALPHA, beta_inter=BETA,
            alpha_intra=ALPHA, beta_intra=BETA,
            intra_kind="dedicated",
        )
        n = 10_000
        res = simulate(fanout_schedule(3), m, n)
        assert res.time == pytest.approx(n * BETA + ALPHA)


class TestDragonfly:
    def test_global_latency_adder(self):
        m = flat_machine(
            4,
            dragonfly=DragonflySpec(nodes_per_group=2, alpha_global=5e-7),
        )
        # rank 0 -> 1: same group (no adder).
        m2 = flat_machine(
            2, dragonfly=DragonflySpec(nodes_per_group=2, alpha_global=5e-7)
        )
        same = simulate(ptp_schedule(), m2, 0)
        assert same.time == pytest.approx(ALPHA)

        p0 = RankProgram(rank=0)
        p0.add(SendOp(peer=2, blocks=(0,)))
        p2 = RankProgram(rank=2)
        p2.add(RecvOp(peer=0, blocks=(0,)))
        sched = from_programs(
            collective="bcast", algorithm="cross", nranks=4, nblocks=1,
            programs=[p0, RankProgram(rank=1), p2, RankProgram(rank=3)],
            root=0,
        )
        cross = simulate(sched, m, 0)
        assert cross.time == pytest.approx(ALPHA + 5e-7)
        assert cross.global_messages == 1

    def test_global_channel_contention(self):
        m = flat_machine(
            8,
            nic_ports=8,
            dragonfly=DragonflySpec(
                nodes_per_group=4, alpha_global=0.0, global_channels=1
            ),
        )
        # rank 0 sends to ranks 4,5,6 (all crossing): 1 global channel
        p0 = RankProgram(rank=0)
        p0.add(*[SendOp(peer=i, blocks=(0,)) for i in (4, 5, 6)])
        progs = [p0] + [RankProgram(rank=r) for r in range(1, 8)]
        for i in (4, 5, 6):
            progs[i].add(RecvOp(peer=0, blocks=(0,)))
        sched = from_programs(
            collective="bcast", algorithm="x", nranks=8, nblocks=1,
            programs=progs, root=0,
        )
        n = 10_000
        res = simulate(sched, m, n)
        assert res.time == pytest.approx(3 * n * BETA + ALPHA)


class TestNoise:
    def test_noise_is_deterministic_per_seed(self):
        sched = build_schedule("allreduce", "recursive_doubling", 8)
        m = frontier(8, 1)
        a = simulate(sched, m, 1024, noise=NoiseModel(0.3, seed=7)).time
        b = simulate(sched, m, 1024, noise=NoiseModel(0.3, seed=7)).time
        c = simulate(sched, m, 1024, noise=NoiseModel(0.3, seed=8)).time
        assert a == b
        assert a != c

    def test_zero_sigma_is_noise_free(self):
        sched = build_schedule("bcast", "binomial", 8)
        m = reference(8)
        clean = simulate(sched, m, 1024).time
        noisy = simulate(sched, m, 1024, noise=NoiseModel(0.0, seed=3)).time
        assert clean == noisy

    def test_negative_sigma_rejected(self):
        with pytest.raises(MachineError):
            NoiseModel(-0.1)


class TestValidation:
    def test_rank_count_mismatch(self):
        sched = build_schedule("bcast", "binomial", 8)
        with pytest.raises(MachineError, match="hosts"):
            simulate(sched, reference(4), 8)

    def test_negative_bytes(self):
        sched = build_schedule("bcast", "binomial", 4)
        with pytest.raises(MachineError):
            simulate(sched, reference(4), -1)

    def test_unmatched_send_detected(self):
        p0 = RankProgram(rank=0)
        p0.add(SendOp(peer=1, blocks=(0,)))
        sched = from_programs(
            collective="bcast", algorithm="leak", nranks=2, nblocks=1,
            programs=[p0, RankProgram(rank=1)], root=0,
        )
        with pytest.raises(MachineError, match="unmatched"):
            simulate(sched, reference(2), 8)

    def test_unmatched_receive_detected(self):
        p1 = RankProgram(rank=1)
        p1.add(RecvOp(peer=0, blocks=(0,)))
        sched = from_programs(
            collective="bcast", algorithm="thirst", nranks=2, nblocks=1,
            programs=[RankProgram(rank=0), p1], root=0,
        )
        with pytest.raises(MachineError, match=r"unmatched receive.*\(0, 1\)"):
            simulate(sched, reference(2), 8)


class TestResultAccounting:
    def test_traffic_summary_matches_simulation(self):
        sched = build_schedule("allgather", "kring", 16, k=4)
        m = frontier(4, 4)
        static = traffic_summary(sched, m, 4096)
        dynamic = simulate(sched, m, 4096)
        assert static.messages == dynamic.messages
        assert static.intra_bytes == dynamic.intra_bytes
        assert static.inter_bytes == dynamic.inter_bytes

    def test_timeline_collection(self):
        sched = build_schedule("bcast", "binomial", 4)
        res = simulate(sched, reference(4), 64, collect_timeline=True)
        assert res.timeline is not None
        assert len(res.timeline) == res.messages
        for src, dst, nbytes, t0, t1, link in res.timeline:
            assert t1 >= t0
            assert link in ("intra", "inter", "global")

    def test_rank_times_bounded_by_makespan(self):
        sched = build_schedule("allreduce", "ring", 8)
        res = simulate(sched, reference(8), 4096)
        assert max(res.rank_times) == pytest.approx(res.time)

    def test_time_us_conversion(self):
        res = simulate(ptp_schedule(), flat_machine(2), 0)
        assert res.time_us == pytest.approx(res.time * 1e6)
