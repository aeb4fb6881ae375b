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
