"""Integration tests tracking the paper's §II–§V narrative claims.

Each test asserts one sentence of the paper's argument against the built
system — the background claims that motivate the generalizations, not
just the headline results.
"""

import pytest

from repro.core.analysis import critical_path_rounds
from repro.core.registry import build_schedule
from repro.models import ModelParams, model_time
from repro.simnet import frontier, reference, simulate
from oracle import programs_of


class TestSectionII:
    def test_classic_kernels_buffer_a_single_message(self):
        """§II-B2: 'in popular communication patterns such as binomial
        tree and recursive doubling, each process only communicates with
        one other process at a time'."""
        for coll, alg in (("bcast", "binomial"),):
            sched = build_schedule(coll, alg, 16)
            for prog in programs_of(sched):
                for step in prog.steps:
                    assert len(step.sends) <= 1

    def test_generalization_buffers_k_minus_1(self):
        """§II-B2: the k-nomial tree overlaps k-1 messages per level."""
        sched = build_schedule("bcast", "knomial", 16, k=8)
        widest = max(
            len(step.sends)
            for prog in programs_of(sched)
            for step in prog.steps
        )
        assert widest == 7

    def test_multiport_makes_overlap_pay(self):
        """§II-B2: multi-port nodes reward the extra buffered messages —
        the same wide schedule is faster on a 4-port node than a 1-port
        node, while the serial binomial is port-count-insensitive."""
        wide = build_schedule("allreduce", "recursive_multiplying", 32, k=4)
        serial = build_schedule("bcast", "binomial", 32)
        n = 1 << 20
        one = frontier(32, 1).with_(nic_ports=1)
        four = frontier(32, 1)
        assert simulate(wide, four, n).time < simulate(wide, one, n).time
        assert simulate(serial, four, n).time == pytest.approx(
            simulate(serial, one, n).time, rel=1e-9
        )


class TestSectionIII:
    def test_naive_bcast_costs_p_latencies(self):
        """§III-B: τ = p(α + βn) for the sequential-root broadcast."""
        p = 16
        machine = reference(p)
        naive = simulate(build_schedule("bcast", "linear", p), machine, 0)
        tree = simulate(build_schedule("bcast", "binomial", p), machine, 0)
        # at n = 0 the naive root still pipelines α but pays no serial
        # bandwidth; the contrast shows at bandwidth-bearing sizes:
        n = 1 << 20
        naive = simulate(build_schedule("bcast", "linear", p), machine, n)
        tree = simulate(build_schedule("bcast", "binomial", p), machine, n)
        assert naive.time / tree.time > (p - 1) / (2 * 4)  # ≳ p/(2 log p)

    def test_latency_scales_logarithmically(self):
        """§III-B: 'the recursive tree structure causes the latency
        overhead α to scale logarithmically with p'."""
        for p, depth in ((8, 3), (64, 6), (256, 8)):
            assert critical_path_rounds(
                build_schedule("bcast", "binomial", p)
            ) == depth


class TestSectionIV:
    def test_recursive_multiplying_reduces_rounds(self):
        """§IV-C: 'sending more messages per round decreases the number
        of rounds'."""
        assert critical_path_rounds(
            build_schedule("allreduce", "recursive_multiplying", 64, k=8)
        ) == 2
        assert critical_path_rounds(
            build_schedule("allreduce", "recursive_doubling", 64)
        ) == 6

    def test_per_round_cost_grows_with_k(self):
        """§IV-D / eq. (7): the per-round bandwidth cost scales with
        (k-1) for allreduce."""
        params = ModelParams(alpha=0.0, beta=1e-9, gamma=0.0)
        n, p = 1 << 20, 64
        t2 = model_time("allreduce", "recursive_multiplying", n, p, params, k=2)
        t8 = model_time("allreduce", "recursive_multiplying", n, p, params, k=8)
        # 6 rounds × 1·nβ vs 2 rounds × 7·nβ
        assert t8 / t2 == pytest.approx((2 * 7) / (6 * 1))


class TestSectionV:
    def test_ring_latency_is_linear_in_p(self):
        """§V-B: 'ring has a worse latency term (log → linear)'."""
        assert critical_path_rounds(
            build_schedule("allgather", "ring", 32)
        ) == 31
        assert critical_path_rounds(
            build_schedule("allgather", "recursive_doubling", 32)
        ) == 5

    def test_ring_bandwidth_asymptote(self):
        """§V-B / eq. (10): for large n the ring approaches βn,
        independent of p."""
        machine = reference(64)
        n = 1 << 26
        t = simulate(build_schedule("allgather", "ring", 64), machine, n).time
        assert t == pytest.approx(machine.beta_inter * n, rel=0.05)

    def test_kring_implicit_barrier_claim(self):
        """§V-C: the classic ring 'has an implicit barrier between
        rounds, so processes with intranode neighbors are starved by the
        slower internode links' — on a machine whose links are all equal,
        k-ring therefore buys nothing."""
        machine = reference(16)  # uniform links
        n = 1 << 20
        ring = simulate(build_schedule("bcast", "kring", 16, k=1), machine, n)
        kring = simulate(build_schedule("bcast", "kring", 16, k=4), machine, n)
        assert kring.time == pytest.approx(ring.time, rel=0.02)
