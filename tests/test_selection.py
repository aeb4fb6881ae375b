"""Tests for selection tables, policies, and the tuner
(:mod:`repro.selection`)."""

import pytest

from repro.errors import SelectionError
from repro.selection.defaults import (
    fixed_policy,
    mpich_policy,
    vendor_policy,
)
from repro.selection.table import Choice, Rule, SelectionConfig, SelectionTable
from repro.selection.tuner import radix_grid, sweep_collective, tune
from repro.simnet.machines import frontier


class TestRule:
    def test_half_open_ranges(self):
        rule = Rule("bcast", Choice("binomial"), min_bytes=16, max_bytes=64)
        assert not rule.matches(8, 15)
        assert rule.matches(8, 16)
        assert rule.matches(8, 63)
        assert not rule.matches(8, 64)

    def test_rank_range(self):
        rule = Rule("bcast", Choice("binomial"), min_ranks=4, max_ranks=16)
        assert not rule.matches(3, 8)
        assert rule.matches(4, 8)
        assert not rule.matches(16, 8)

    def test_unbounded_defaults(self):
        rule = Rule("bcast", Choice("binomial"))
        assert rule.matches(1, 0)
        assert rule.matches(10**6, 10**9)

    def test_unknown_collective_rejected(self):
        with pytest.raises(SelectionError):
            Rule("alltoall", Choice("binomial"))

    def test_unknown_algorithm_rejected_at_construction(self):
        with pytest.raises(SelectionError):
            Rule("bcast", Choice("quantum"))

    def test_radix_on_fixed_algorithm_rejected(self):
        with pytest.raises(SelectionError, match="radix"):
            Rule("bcast", Choice("binomial", k=4))

    def test_empty_ranges_rejected(self):
        with pytest.raises(SelectionError):
            Rule("bcast", Choice("binomial"), min_bytes=64, max_bytes=64)
        with pytest.raises(SelectionError):
            Rule("bcast", Choice("binomial"), min_ranks=4, max_ranks=4)


class TestTable:
    def test_first_match_wins(self):
        t = SelectionTable(name="t")
        t.add(Rule("bcast", Choice("binomial"), max_bytes=1024))
        t.add(Rule("bcast", Choice("knomial", 8)))
        assert t.select("bcast", 16, 100).algorithm == "binomial"
        assert t.select("bcast", 16, 2048).k == 8

    def test_fallback(self):
        t = SelectionTable(name="t")
        t.fallback["gather"] = Choice("binomial")
        assert t.select("gather", 8, 8).algorithm == "binomial"

    def test_no_rule_no_fallback_raises(self):
        t = SelectionTable(name="t")
        with pytest.raises(SelectionError, match="no rule"):
            t.select("bcast", 8, 8)

    def test_coverage_errors(self):
        t = SelectionTable(name="t")
        t.add(Rule("bcast", Choice("binomial"), max_bytes=1024))
        missing = t.coverage_errors("bcast", 8, [8, 512, 2048])
        assert missing == [2048]

    @staticmethod
    def _document(table):
        """A hand-written table as a selection-config document (tables
        are written and read only as the document's ``"table"``)."""
        return SelectionConfig(table=table, machine="reference-128",
                               nranks=128, sizes=[], collectives=())

    def test_json_roundtrip(self):
        t = mpich_policy()
        text = self._document(t).to_json()
        restored = SelectionConfig.from_json(text).table
        assert restored.rules == t.rules and restored.fallback == t.fallback
        for coll in ("bcast", "reduce", "allgather", "allreduce"):
            for n in (8, 4096, 1 << 20):
                assert restored.select(coll, 128, n) == t.select(coll, 128, n)

    def test_save_load(self, tmp_path):
        t = vendor_policy()
        path = self._document(t).save(tmp_path / "sel.json")
        restored = SelectionConfig.load(path).table
        assert restored.name == t.name
        assert restored.rules == t.rules

    def test_codec_lives_on_the_document(self):
        for name in ("to_json", "from_json", "save", "load"):
            assert not hasattr(SelectionTable, name)

    def test_describe_renders_rules(self):
        text = mpich_policy().describe()
        assert "bcast" in text and "binomial" in text


class TestPolicies:
    def test_mpich_small_bcast_is_binomial(self):
        assert mpich_policy().select("bcast", 128, 8).algorithm == "binomial"

    def test_mpich_large_reduce_is_rabenseifner(self):
        assert (
            mpich_policy().select("reduce", 128, 1 << 20).algorithm
            == "reduce_scatter_gather"
        )

    def test_vendor_never_leaves_binomial_reduce(self):
        """The Cray-MPI-style mis-selection behind Fig. 9a's 4.5x."""
        v = vendor_policy()
        for n in (8, 1 << 16, 1 << 20, 1 << 24):
            assert v.select("reduce", 128, n).algorithm == "binomial"

    def test_policies_cover_all_paper_collectives(self):
        for policy in (mpich_policy(), vendor_policy()):
            for coll in ("bcast", "reduce", "allgather", "allreduce",
                         "gather", "scatter", "reduce_scatter"):
                for n in (0, 8, 1 << 12, 1 << 22, 1 << 28):
                    policy.select(coll, 128, n)  # must not raise

    def test_fixed_policy_pins_one_algorithm(self):
        t = fixed_policy("allreduce", "recursive_multiplying", 4)
        choice = t.select("allreduce", 64, 12345)
        assert choice == Choice("recursive_multiplying", 4)


class TestRadixGrid:
    def test_contents(self):
        assert radix_grid(16) == [2, 3, 4, 5, 8, 16]

    def test_min_k_1_for_kring(self):
        grid = radix_grid(8, min_k=1)
        assert grid[0] == 1
        assert 8 in grid

    def test_small_p(self):
        assert radix_grid(2) == [2]
        assert radix_grid(1) == [2]

    def test_invalid(self):
        with pytest.raises(SelectionError):
            radix_grid(0)


class TestTuner:
    @pytest.fixture(scope="class")
    def tuned(self):
        machine = frontier(8, 1)
        return machine, tune(machine, [8, 4096, 1 << 20]).table

    def test_covers_all_sizes(self, tuned):
        machine, table = tuned
        for coll in ("bcast", "reduce", "allgather", "allreduce"):
            assert table.coverage_errors(coll, machine.nranks,
                                         [0, 8, 4096, 1 << 20, 1 << 26]) == []

    def test_tuned_beats_or_ties_fixed_policies(self, tuned):
        from repro.bench.speedup import policy_latency

        machine, table = tuned
        for coll in ("bcast", "reduce", "allgather", "allreduce"):
            for n in (8, 4096, 1 << 20):
                t_tuned = policy_latency(table, coll, machine, n)
                t_fixed = policy_latency(mpich_policy(), coll, machine, n)
                assert t_tuned <= t_fixed * 1.0001

    def test_rule_merging_produces_compact_table(self, tuned):
        _, table = tuned
        # at most one rule per (collective, winner-run): ≤ 3 per collective
        per_coll = {}
        for rule in table.rules:
            per_coll[rule.collective] = per_coll.get(rule.collective, 0) + 1
        assert all(v <= 3 for v in per_coll.values())

    def test_sweep_returns_all_combinations(self):
        machine = frontier(4, 1)
        sweep = sweep_collective("reduce", machine, [8, 1024])
        # binomial + rsg (fixed) + knomial over the radix grid, 2 sizes
        grid = radix_grid(4)
        assert len(sweep.entries) == (2 + len(grid)) * 2
        best = sweep.best(8)
        assert best.time > 0

    def test_sweep_best_missing_size(self):
        machine = frontier(4, 1)
        sweep = sweep_collective("reduce", machine, [8])
        with pytest.raises(SelectionError):
            sweep.best(999)

    def test_tune_requires_sizes(self):
        with pytest.raises(SelectionError):
            tune(frontier(4, 1), [])


class TestTunerDeterminism:
    """The tuner's output is a function of (machine, sizes) only — never
    of how the sweep was scheduled.  ``--jobs`` fans the same points over
    a process pool with results in point order, so the argmin per size —
    and the emitted table — cannot change (the PR 2 determinism
    contract; see also tests/properties/test_schedule_cache.py)."""

    def test_same_winner_regardless_of_jobs(self, monkeypatch):
        import repro.parallel

        # Defeat the core-count clamp so jobs>=2 really uses the pool,
        # even on a single-core CI runner.
        monkeypatch.setattr(repro.parallel, "_available_cpus", lambda: 8)
        machine = frontier(8, 1)
        sizes = [64, 4096, 1 << 16, 1 << 20]
        serial = tune(machine, sizes, jobs=0)
        pooled = tune(machine, sizes, jobs=4)
        assert pooled.to_json() == serial.to_json()

    def test_sweep_entries_identical_across_jobs(self, monkeypatch):
        import repro.parallel

        monkeypatch.setattr(repro.parallel, "_available_cpus", lambda: 8)
        machine = frontier(8, 1)
        serial = sweep_collective("allreduce", machine, [64, 1 << 18], jobs=0)
        pooled = sweep_collective("allreduce", machine, [64, 1 << 18], jobs=2)
        assert pooled.entries == serial.entries
