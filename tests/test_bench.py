"""Tests for the benchmark harness (:mod:`repro.bench`)."""

import pytest

from repro.bench import perf
from repro.bench.osu import default_sizes, osu_latency, osu_latency_schedule
from repro.bench.report import format_size, format_table, geomean, speedup_str
from repro.bench.speedup import policy_latency, speedup_curves
from repro.bench.sweep import clear_sim_memo, radix_latency_sweep
from repro.compile.cache import clear_class_cache, global_compiled_cache
from repro.core.cache import global_schedule_cache
from repro.core.registry import build_schedule
from repro.core.schedule import Schedule
from repro.errors import ReproError
from repro.selection.defaults import mpich_policy
from repro.selection.tuner import tune
from repro.simnet.machines import frontier, reference, resolve


class TestReport:
    def test_format_size(self):
        assert format_size(8) == "8B"
        assert format_size(1024) == "1KiB"
        assert format_size(65536) == "64KiB"
        assert format_size(4 << 20) == "4MiB"
        assert format_size(1536) == "1.5KiB"

    def test_format_size_negative(self):
        with pytest.raises(ValueError):
            format_size(-1)

    def test_format_table_aligns(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["bbbb", 22.25]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "value" in lines[1]
        assert "22.25" in text

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, -1.0])

    def test_speedup_str(self):
        assert speedup_str(1.5) == "1.50x"


class TestOSU:
    def test_default_sizes_powers_of_two(self):
        sizes = default_sizes(8, 128)
        assert sizes == [8, 16, 32, 64, 128]
        with pytest.raises(ReproError):
            default_sizes(8, 4)

    def test_latency_points(self):
        pts = osu_latency("bcast", "binomial", reference(8), [8, 64])
        assert [p.nbytes for p in pts] == [8, 64]
        assert all(p.avg_us > 0 for p in pts)
        assert all(p.min_us <= p.avg_us <= p.max_us for p in pts)

    def test_latency_monotone_in_size(self):
        pts = osu_latency(
            "allreduce", "ring", reference(8), default_sizes(8, 1 << 20)
        )
        times = [p.avg_us for p in pts]
        assert times == sorted(times)

    def test_noise_trials_spread(self):
        pts = osu_latency(
            "bcast", "binomial", frontier(8, 1), [1024],
            trials=5, noise_sigma=0.3,
        )
        assert pts[0].trials == 5
        assert pts[0].max_us > pts[0].min_us

    def test_rooted_algorithm_with_root(self):
        pts = osu_latency("reduce", "knomial", reference(8), [8], k=4, root=3)
        assert pts[0].avg_us > 0

    def test_invalid_trials(self):
        with pytest.raises(ReproError):
            osu_latency_schedule(
                build_schedule("bcast", "binomial", 8), reference(8), [8],
                trials=0,
            )


class TestRadixSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return radix_latency_sweep(
            "reduce", "knomial", frontier(16, 1), [8, 1 << 20], ks=[2, 4, 16]
        )

    def test_surface_complete(self, sweep):
        for k in (2, 4, 16):
            for n in (8, 1 << 20):
                assert sweep.latency(k, n) > 0

    def test_series_accessors(self, sweep):
        assert len(sweep.series_for_k(4)) == 2
        assert len(sweep.series_for_size(8)) == 3

    def test_best_k_paper_shape(self, sweep):
        assert sweep.best_k(8) >= sweep.best_k(1 << 20)

    def test_best_latency_consistency(self, sweep):
        assert sweep.best_latency(8) == sweep.latency(sweep.best_k(8), 8)

    def test_flatness_at_least_one(self, sweep):
        assert sweep.flatness(8) >= 1.0

    def test_missing_point_raises(self, sweep):
        with pytest.raises(ReproError):
            sweep.latency(3, 8)

    def test_fixed_algorithm_rejected(self):
        with pytest.raises(ReproError, match="generalized"):
            radix_latency_sweep("bcast", "binomial", reference(8), [8])


class TestSpeedup:
    def test_policy_latency(self):
        t = policy_latency(mpich_policy(), "bcast", frontier(8, 1), 64)
        assert t > 0

    def test_curve_structure(self):
        curve = speedup_curves(
            "allreduce",
            frontier(8, 1),
            [8, 1 << 20],
            candidates=[("recursive_multiplying", [2, 4]),
                        ("reduce_scatter_allgather", [None])],
        )
        assert len(curve.points) == 2
        pt = curve.points[0]
        assert pt.speedup_vs_baseline == pytest.approx(
            pt.baseline_us / pt.best_us
        )
        assert curve.max_speedup_vs_vendor() >= 1.0 or True  # finite
        winners = curve.winners()
        assert set(winners) == {8, 1 << 20}

    def test_best_choice_is_argmin(self):
        curve = speedup_curves(
            "allreduce",
            frontier(8, 1),
            [1 << 20],
            candidates=[("recursive_multiplying", [2, 4, 8])],
        )
        pt = curve.points[0]
        sweep = radix_latency_sweep(
            "allreduce", "recursive_multiplying", frontier(8, 1), [1 << 20],
            ks=[2, 4, 8],
        )
        assert pt.best_us == pytest.approx(sweep.best_latency(1 << 20))
        assert pt.best_choice.k == sweep.best_k(1 << 20)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ReproError):
            speedup_curves("allreduce", frontier(8, 1), [8], candidates=[])


class TestPerfGates:
    """The gate runner (:mod:`repro.bench.perf`) on synthetic facts; no
    real measure runs here."""

    @staticmethod
    def _run(monkeypatch, rows, facts):
        """``run_gates()`` over a synthetic table: ``rows`` are
        (measure, fact, op, bound), ``facts`` is {measure: fact dict}."""
        monkeypatch.setattr(
            perf, "GATES", tuple(perf._Gate(*row, "why") for row in rows)
        )
        monkeypatch.setattr(
            perf, "_MEASURES", {m: (lambda f=f: f) for m, f in facts.items()}
        )
        return perf.run_gates()

    @pytest.mark.parametrize("op,holds,broken", [
        (">=", (1.0, 1.5), (0.999,)),
        ("<=", (1.0, 0.5), (1.001,)),
        (">", (1.001,), (1.0, 0.5)),
    ])
    def test_operators_at_the_boundary(self, monkeypatch, op, holds, broken):
        assert op in {g.op for g in perf.GATES}
        for value in holds + broken:
            (row,) = self._run(
                monkeypatch, [("m", "x", op, 1.0)], {"m": {"x": value}}
            )
            assert row["ok"] is (value in holds), (op, value)
            assert row["value"] == value and row["error"] is None

    def test_missing_fact_fails_naming_the_row(self, monkeypatch):
        rows = [("m", "x", "<=", 1.0), ("m", "y", "<=", 1.0)]
        bad, good = self._run(monkeypatch, rows, {"m": {"y": 0.5}})
        assert good["ok"]
        assert not bad["ok"] and bad["value"] is None
        assert "'m'" in bad["error"] and "'x'" in bad["error"]
        line = perf.format_report([bad])
        assert line.startswith("m.x") and "FAIL" in line

    def test_table_is_well_formed(self):
        names = [g.name for g in perf.GATES]
        assert len(set(names)) == len(names)
        assert {g.measure for g in perf.GATES} == set(perf._MEASURES)

    def test_bounds_are_pinned(self):
        # Loosening a bound is a visible edit here, not only in the table.
        assert [(g.name, g.op, g.bound) for g in perf.GATES] == [
            ("sweep.cache_speedup", ">=", 1.0),
            ("recovery.overhead", "<=", 2.0),
            ("obs.overhead", "<=", 2.0),
            ("durability.overhead", "<=", 1.05),
            ("durability.end_to_end", "<=", 1.25),
            ("durability.warm_speedup", ">", 1.0),
            ("scale.sweep_wall_s", "<=", 120.0),
            ("scale.sublinear_ratio", "<=", 256.0),
            ("serve.warm_speedup", ">=", 2.0),
        ]


class TestColdTuneDoesNothingTwice:
    """Clock-free guard on the cold ``tune → selection config`` path
    (perfbench's ``tune_cold``): counts, not times."""

    def test_one_seal_one_digest_one_build_per_schedule(self, monkeypatch):
        sealed, digests = [], []
        seal, digest = Schedule._seal, Schedule._digest

        def counting_seal(self, *labels_and_columns):
            seal(self, *labels_and_columns)
            sealed.append(self)

        def counting_digest(self):
            digests.append(self)
            return digest(self)

        monkeypatch.setattr(Schedule, "_seal", counting_seal)
        monkeypatch.setattr(Schedule, "_digest", counting_digest)
        schedules = global_schedule_cache()
        for clear in (clear_sim_memo, schedules.clear, clear_class_cache,
                      global_compiled_cache().clear):
            clear()
        try:
            tune(resolve("frontier-2x4"), (1024, 1 << 20))
            builds = schedules.stats().misses
            phases = schedules.phases.stats()
            nphases = len(schedules.phases)
        finally:
            schedules.clear()
            global_compiled_cache().clear()
            clear_sim_memo()

        # The digest runs at most once per Schedule object, however many
        # caches, store keys and ladder rungs ask for the fingerprint …
        assert len(digests) == len({id(s) for s in digests})
        assert len(digests) <= builds
        # … each distinct (builder, args) phase is constructed once …
        assert phases.misses == nphases and phases.evictions == 0
        assert phases.hits > 0
        # … and no two constructed schedules are the same schedule:
        # composites share their phases and aliases (binomial = k-nomial
        # at k = 2, ring = k-ring at k = p) are relabel() copies.
        assert len(sealed) == len({digest(s) for s in sealed})

    def test_one_fifo_matching_per_schedule(self, monkeypatch):
        import repro.compile.program
        import repro.core.schedule
        from repro.check import run_checks
        from repro.faults import Crash, FaultPlan
        from repro.recovery.detect import simulated_failures
        from repro.simnet.simulate import simulate

        sealed, matched = [], []
        seal, match = Schedule._seal, repro.core.schedule.match_fifo

        def counting_seal(self, *labels_and_columns):
            seal(self, *labels_and_columns)
            sealed.append(self)

        def counting_match(cols):
            matched.append(cols)
            return match(cols)

        monkeypatch.setattr(Schedule, "_seal", counting_seal)
        for module in (repro.core.schedule, repro.compile.program):
            monkeypatch.setattr(module, "match_fifo", counting_match)
        schedules = global_schedule_cache()
        for clear in (clear_sim_memo, schedules.clear, clear_class_cache,
                      global_compiled_cache().clear):
            clear()
        machine = resolve("frontier-2x4")
        try:
            tune(machine, (1024, 1 << 20))
            cold = len(matched)
            # Lowering and sim_plan() share one matching, and relabel()
            # copies share their original's: at most one per distinct
            # constructed schedule, each over that schedule's own
            # columns (copies share them; none is re-derived from
            # compiled tables).
            assert cold == len({id(cols) for cols in matched})
            assert {id(cols) for cols in matched} <= {
                id(s.columns()) for s in sealed
            }

            # Every later static reader of a swept schedule reads the
            # same table: fault statics, the simulated detector, the
            # channel audit and dependency rounds.
            sched, hit = schedules.get_or_build("allreduce", "kring", 8, k=4)
            assert hit
            plan = FaultPlan(crashes=(Crash(1, 0),))
            assert not simulate(sched, machine, 1024, faults=plan).complete
            assert simulated_failures(sched, plan)[0]
            assert run_checks(sched).ok
            assert len(matched) == cold
        finally:
            schedules.clear()
            global_compiled_cache().clear()
            clear_sim_memo()
