"""Golden equivalence: the collapsed engine is bit-identical to the
materialized engine on the small-p registry grid.

This is the collapsed engine's entire correctness contract — not
"approximately equal", but the same floats: the class partition proves
ranks are timing-isomorphic, so simulating one representative per class
and fanning out must reproduce the materialized engine's makespan,
per-rank completion times, and traffic accounting exactly.  The grid
covers every generalized (collective, algorithm) pair plus the ring/
recursive-doubling families the lazy generators mirror, across radices
and sizes, at p up to 32, on ``reference(p)`` and — at p = 16 and 32 —
on the flat Frontier dragonfly (``frontier-P-flat``: latency groups of
16 nodes, no channel pools), the one collapse-eligible shape whose
messages cross groups (a class plan's link column and weighted
``global_messages``).  Bruck and k-dissemination on a one-port machine,
where the collapse is not exact yet, are strict expected failures
(ROADMAP item 2).
"""

import pytest

from repro.core.registry import GENERALIZED_ALGORITHMS, info
from repro.selection.tuner import radix_grid
from repro.simnet.machines import get, reference
from repro.simnet.simulate import simulate

#: Non-generalized families on the grid: the ones the lazy generator
#: schedules (repro.core.lazy) mirror, pinned here via their registry
#: builders.
RING_FAMILIES = (
    ("allgather", "ring"),
    ("reduce_scatter", "ring"),
    ("allreduce", "ring"),
    ("allreduce", "recursive_doubling"),
)


def _grid():
    for coll, alg in GENERALIZED_ALGORITHMS:
        entry = info(coll, alg)
        for p in (8, 16, 32):
            ks = radix_grid(p, min_k=entry.min_k)
            # p=16 takes the whole radix grid; elsewhere three radices
            # keep the test short.
            for k in ks if p == 16 else ks[:3]:
                yield coll, alg, p, k
    for coll, alg in RING_FAMILIES:
        for p in (8, 16, 32):
            yield coll, alg, p, None


def _assert_identical(mat, col, label):
    assert col.time == mat.time, label
    assert list(col.rank_times) == list(mat.rank_times), label
    assert col.messages == mat.messages, label
    assert col.intra_messages == mat.intra_messages, label
    assert col.inter_messages == mat.inter_messages, label
    assert col.global_messages == mat.global_messages, label
    assert col.intra_bytes == mat.intra_bytes, label
    assert col.inter_bytes == mat.inter_bytes, label


def _check_point(coll, alg, p, k, machine):
    schedule = info(coll, alg).build(p, k=k, root=0)
    for nbytes in (64, 4096, 1 << 16) if p == 16 else (64, 4096):
        mat = simulate(schedule, machine, nbytes, engine="materialized")
        col = simulate(schedule, machine, nbytes, engine="collapsed")
        label = f"{coll}/{alg} p={p} k={k} n={nbytes} on {machine.name}"
        # An explicit collapsed request on this grid must actually run
        # the collapsed core (symmetric machine, root 0, no noise).
        assert (mat.engine, mat.nclasses) == ("materialized", None), label
        assert col.engine == "collapsed", (label, col.fallback)
        assert col.fallback is None, label
        assert 1 <= col.nclasses <= p, label
        _assert_identical(mat, col, label)


@pytest.mark.parametrize("coll,alg,p,k", list(_grid()))
def test_collapsed_matches_materialized(coll, alg, p, k):
    _check_point(coll, alg, p, k, reference(p))


@pytest.mark.parametrize(
    "coll,alg,p,k", [point for point in _grid() if point[2] in (16, 32)]
)
def test_collapsed_matches_materialized_across_groups(coll, alg, p, k):
    _check_point(coll, alg, p, k, get(f"frontier-{p}-flat"))


class TestAutoPolicy:
    def test_auto_small_p_stays_materialized(self):
        # Below the auto threshold the collapsed engine's setup cost
        # is not worth it for materialized schedules — auto must pick
        # the classic engine (explicit engine="collapsed" still works,
        # as the grid test above proves).
        schedule = info("allgather", "ring").build(8, k=None, root=0)
        res = simulate(schedule, reference(8), 4096)
        assert res.engine == "materialized"
        assert res.fallback is None  # policy skip, not a fallback

    def test_auto_degenerate_partition_stays_materialized(self):
        # A partition with nclasses == p collapses nothing; auto must
        # route it to the faster materialized engine even at large p.
        schedule = info("bcast", "knomial").build(512, k=2, root=0)
        res = simulate(schedule, reference(512), 4096)
        assert res.engine == "materialized"

    def test_auto_lazy_uses_collapsed_at_any_p(self):
        from repro.core.lazy import lookup

        lazy = lookup("allgather", "ring", 8)
        res = simulate(lazy, reference(8), 4096)
        assert res.engine == "collapsed"
        assert res.nclasses == 1

    def test_collapsed_result_is_flagged(self):
        schedule = info("allreduce", "ring").build(16, k=None, root=0)
        res = simulate(schedule, reference(16), 4096, engine="collapsed")
        assert res.engine == "collapsed"
        assert res.nclasses == 1


#: Contended partitions the class plan gets wrong today: on a one-port
#: machine these collapse to one class, yet the materialized ranks of
#: that class finish at different times (same-time requests on a full
#: port park in rank-id order, which a class plan cannot reproduce).
CONTENDED = (
    ("barrier", "k_dissemination", 8),
    ("allgather", "bruck", 3),
    ("allgather", "bruck", 4),
    ("alltoall", "bruck", 4),
)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: collapse is exact or it is refused — the "
    "collapsed core undercuts the materialized one on contended "
    "single-class partitions",
)
@pytest.mark.parametrize("nbytes", [4096, 1 << 16])
@pytest.mark.parametrize("coll,alg,k", CONTENDED)
def test_contended_collapse_matches_materialized(coll, alg, k, nbytes):
    schedule = info(coll, alg).build(64, k=k, root=0)
    machine = reference(64)  # one NIC port
    mat = simulate(schedule, machine, nbytes, engine="materialized")
    col = simulate(schedule, machine, nbytes, engine="collapsed")
    _assert_identical(mat, col, f"{coll}/{alg} k={k} n={nbytes}")
