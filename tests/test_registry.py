"""Tests for the algorithm registry (:mod:`repro.core.registry`)."""

import pytest

from repro.core.registry import (
    COLLECTIVES,
    GENERALIZED_ALGORITHMS,
    ROOTED_COLLECTIVES,
    TABLE1,
    algorithms_for,
    build_schedule,
    info,
    max_radix,
)
from repro.errors import ScheduleError
from oracle import programs_of


class TestLookup:
    def test_all_collectives_have_algorithms(self):
        for coll in COLLECTIVES:
            assert algorithms_for(coll), coll

    def test_unknown_collective(self):
        with pytest.raises(ScheduleError):
            algorithms_for("alltoallw")

    def test_unknown_algorithm_lists_known(self):
        with pytest.raises(ScheduleError, match="known:"):
            info("bcast", "quantum")

    def test_generalized_set_is_table1(self):
        """The 10 registered generalized algorithms are exactly Table I."""
        expected = set()
        for base, (gen, colls) in TABLE1.items():
            for coll in colls:
                expected.add((coll, gen))
        assert set(GENERALIZED_ALGORITHMS) == expected
        assert len(GENERALIZED_ALGORITHMS) == 10

    def test_generalized_entries_take_k(self):
        for coll, alg in GENERALIZED_ALGORITHMS:
            entry = info(coll, alg)
            assert entry.generalized
            assert entry.takes_k
            assert entry.default_k is not None

    def test_kernel_attribution(self):
        assert info("bcast", "kring").kernel == "ring"
        assert info("reduce", "knomial").kernel == "binomial"
        assert info("allreduce", "recursive_multiplying").kernel == (
            "recursive_doubling"
        )


class TestBuildSchedule:
    def test_default_radix_applied(self):
        sched = build_schedule("bcast", "knomial", 8)
        assert sched.k == 2
        assert sched.algorithm == "binomial"  # k=2 is the classic

    def test_radix_rejected_for_fixed_algorithm(self):
        with pytest.raises(ScheduleError, match="does not take a radix"):
            build_schedule("bcast", "binomial", 8, k=4)

    def test_root_rejected_for_unrooted(self):
        with pytest.raises(ScheduleError, match="does not take a root"):
            build_schedule("allreduce", "recursive_doubling", 8, root=3)

    def test_root_accepted_for_rooted(self):
        sched = build_schedule("bcast", "binomial", 8, root=5)
        assert sched.root == 5

    def test_rooted_collectives_all_take_root(self):
        for coll in ROOTED_COLLECTIVES:
            for alg in algorithms_for(coll):
                assert info(coll, alg).takes_root, (coll, alg)

    def test_invalid_p(self):
        with pytest.raises(ScheduleError):
            build_schedule("bcast", "binomial", 0)

    def test_default_radix_schedules_match_classics(self):
        """Fig. 7's structural guarantee: generalized @ default radix
        produces the identical schedule to the classic algorithm."""
        pairs = [
            ("bcast", "knomial", "binomial"),
            ("reduce", "knomial", "binomial"),
            ("allgather", "recursive_multiplying", "recursive_doubling"),
            ("allreduce", "recursive_multiplying", "recursive_doubling"),
            ("allgather", "kring", "ring"),
            ("allreduce", "kring", "ring"),
            ("bcast", "kring", "ring"),
        ]
        for coll, gen, classic in pairs:
            g = build_schedule(coll, gen, 12)
            c = build_schedule(coll, classic, 12)
            assert [prog.steps for prog in programs_of(g)] == [
                prog.steps for prog in programs_of(c)
            ], (coll, gen)


class TestMaxRadix:
    def test_tree_radix_saturates_at_p(self):
        assert max_radix("bcast", "knomial", 16) == 16

    def test_fixed_algorithm_has_no_radix(self):
        with pytest.raises(ScheduleError):
            max_radix("bcast", "binomial", 16)


def registry_grid(p):
    """Every registry entry × radix × root a sweep can ask for at ``p``."""
    for coll in COLLECTIVES:
        for alg in algorithms_for(coll):
            entry = info(coll, alg)
            ks = (range(entry.min_k, max_radix(coll, alg, p) + 1)
                  if entry.takes_k else [None])
            roots = [0, 1] if entry.takes_root else [0]
            for k in ks:
                for root in roots:
                    yield entry, k, root


class TestAliases:
    @pytest.mark.parametrize("p", [8, 16])
    def test_declared_alias_is_the_name_a_build_reports(self, p):
        """``AlgorithmInfo.alias`` predicts every relabelling builder
        exactly, so the table cannot drift from the builders it
        describes (the tuning service inverts it to read store keys)."""
        for entry, k, root in registry_grid(p):
            sched = entry.build(p, k=k, root=root)
            declared = (entry.alias[0]
                        if entry.alias is not None and entry.alias[1](p, k)
                        else entry.name)
            assert sched.algorithm == declared, (entry.collective,
                                                 entry.name, p, k)

    def test_only_radix_entries_alias(self):
        for coll in COLLECTIVES:
            for alg in algorithms_for(coll):
                entry = info(coll, alg)
                assert entry.alias is None or entry.takes_k, (coll, alg)
