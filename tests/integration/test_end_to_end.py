"""Integration tests: full pipelines across packages.

Each test exercises a realistic workflow a downstream user would run:
validate → execute → simulate → tune → select, crossing every package
boundary in the library.
"""

import numpy as np
import pytest

import repro
from repro.bench.osu import osu_latency
from repro.bench.speedup import policy_latency
from repro.core.registry import build_schedule
from repro.runtime.buffers import (
    check_outputs,
    initial_buffers,
    make_inputs,
    reference_result,
)
from repro.runtime.executor import execute
from repro.runtime.threaded import execute_threaded
from repro.selection import SelectionConfig
from repro.selection.tuner import tune
from repro.simnet.machines import frontier, polaris, reference
from repro.simnet.simulate import simulate


class TestValidateExecuteSimulatePipeline:
    """The three execution paths agree on one schedule."""

    @pytest.mark.parametrize(
        "coll,alg,p,k",
        [
            ("allreduce", "recursive_multiplying", 12, 4),
            ("allgather", "kring", 16, 4),
            ("bcast", "knomial", 17, 4),
        ],
    )
    def test_all_three_paths(self, coll, alg, p, k):
        sched = build_schedule(coll, alg, p, k=k)
        # 1. symbolic
        repro.verify(sched)
        # 2. data (lockstep + threaded agree)
        count = 2 * p + 1
        inputs = make_inputs(coll, p, count)
        a = initial_buffers(sched, inputs, count)
        b = initial_buffers(sched, inputs, count)
        execute(sched, a)
        execute_threaded(sched, b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        check_outputs(sched, a, reference_result(coll, inputs, count), count)
        # 3. timing
        res = simulate(sched, frontier(p, 1) if p in (12, 16, 17) else
                       reference(p), 4096)
        assert res.time > 0


class TestTuneThenUse:
    def test_tuned_table_roundtrips_and_selects(self, tmp_path):
        machine = frontier(8, 1)
        config = tune(machine, [8, 2048, 1 << 19])
        path = config.save(tmp_path / "frontier8.json")
        loaded = SelectionConfig.load(path)
        assert loaded.to_json() == config.to_json()
        for coll in ("bcast", "reduce", "allgather", "allreduce"):
            choice = loaded.select(coll, machine.nranks, 1 << 19)
            # the selected algorithm must actually build and verify
            entry = repro.algorithms_for(coll)
            assert choice.algorithm in entry
            sched = build_schedule(coll, choice.algorithm, machine.nranks,
                                   k=choice.k)
            repro.verify(sched)

    def test_tuned_never_worse_than_vendor(self):
        machine = frontier(8, 1)
        sizes = [8, 2048, 1 << 19]
        table = tune(machine, sizes).table
        vendor = repro.vendor_policy()
        for coll in ("bcast", "reduce", "allgather", "allreduce"):
            for n in sizes:
                assert policy_latency(table, coll, machine, n) <= (
                    policy_latency(vendor, coll, machine, n) * 1.0001
                )


class TestPaperHeadlines:
    """The paper's headline claims, at reduced scale, end to end."""

    def test_generalization_speedup_exists_on_frontier(self):
        """§VI abstract: generalized algorithms beat fixed-radix baselines
        by a significant margin somewhere in the sweep."""
        machine = frontier(32, 1)
        base = osu_latency("reduce", "binomial", machine, [8])[0].avg_us
        best = min(
            osu_latency("reduce", "knomial", machine, [8], k=k)[0].avg_us
            for k in (4, 8, 16, 32)
        )
        assert base / best > 1.5

    def test_kring_beats_ring_on_frontier_but_not_polaris(self):
        """§VI-C3 vs §VI-E: the same k-ring code is a win on hierarchical
        nodes and a wash on flat ones."""
        n = 1 << 20
        fm = frontier(8, 8)
        pm = polaris(16, 4)
        f_gain = (
            osu_latency("bcast", "kring", fm, [n], k=1)[0].avg_us
            / osu_latency("bcast", "kring", fm, [n], k=8)[0].avg_us
        )
        p_gain = (
            osu_latency("bcast", "kring", pm, [n], k=1)[0].avg_us
            / osu_latency("bcast", "kring", pm, [n], k=4)[0].avg_us
        )
        assert f_gain > 1.3
        assert p_gain < f_gain
        assert p_gain < 1.4

    def test_recmul_optimal_radix_tracks_ports(self):
        """§VI-C2: the NIC port count, not the model, sets recmul's best
        radix at bandwidth-bound sizes — 4 on Frontier, 2-4 on Polaris."""
        n = 1 << 16
        for machine, ports in ((frontier(32, 1), 4), (polaris(32, 1), 2)):
            times = {
                k: osu_latency(
                    "allreduce", "recursive_multiplying", machine, [n], k=k
                )[0].avg_us
                for k in (2, 4, 8, 16, 32)
            }
            best = min(times, key=times.get)
            assert best in (ports, 2 * ports, max(2, ports // 2), 5)

    def test_single_implementation_multiple_machines(self):
        """§I: one system-agnostic implementation optimizes on both
        machines — literally the same Schedule object simulated on each."""
        sched = build_schedule("allreduce", "recursive_multiplying", 32, k=4)
        t_f = simulate(sched, frontier(32, 1), 65536).time_us
        t_p = simulate(sched, polaris(32, 1), 65536).time_us
        base = build_schedule("allreduce", "recursive_doubling", 32)
        assert t_f < simulate(base, frontier(32, 1), 65536).time_us
        assert t_p < simulate(base, polaris(32, 1), 65536).time_us


class TestPublicAPI:
    def test_top_level_quickstart(self):
        """The README quickstart, verbatim."""
        run = repro.execute(
            "allreduce", "recursive_multiplying", p=16, count=1024, k=4
        )
        assert np.array_equal(run.buffers[0], run.expected[0])
        machine = repro.frontier(nodes=16, ppn=1)
        sched = repro.build(
            "allreduce", "recursive_multiplying", p=machine.nranks, k=4
        )
        assert repro.simulate(sched, machine, nbytes=65536).time_us > 0

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_experiment_registry_lists_every_figure(self):
        expected = {
            "table1", "figdiagrams", "fig7", "fig8a", "fig8b", "fig8c",
            "fig9a", "fig9b", "fig9c", "fig9d",
            "fig10a", "fig10b", "fig10c",
            "fig11a", "fig11b", "fig11c",
            "eq13", "models", "variance", "selection",
            "ablation-ports", "ablation-injection", "ablation-intranode",
            "ablation-placement", "ablation-bruck", "ablation-pipeline",
            "ablation-hierarchical", "ablation-alltoall",
        }
        assert expected == set(repro.ALL_EXPERIMENTS)
