"""Tests for the lazy generator schedules (:mod:`repro.core.lazy`).

A :class:`~repro.core.lazy.LazySchedule` is a closed-form description of
a rank-symmetric schedule: per-rank tables are generated on demand, the
class partition is a single class by construction, and ``materialize()``
recovers the explicit registry schedule when small enough.  The tests
pin (a) the lookup scope, (b) generator faithfulness — the generated
per-rank tables match the registry build's columns, and the
simulated costs match bit for bit through both engines — and (c) the
materialization guard that keeps "expand 4M ops" requests from defeating
the point.
"""

import pytest

from repro.core.lazy import LAZY_FAMILIES, _MATERIALIZE_MAX_OPS, lookup
from repro.core.registry import build_schedule
from repro.errors import ScheduleError
from repro.simnet.machines import reference
from repro.simnet.simulate import simulate


class TestLookupScope:
    def test_covers_the_declared_families(self):
        assert ("allgather", "ring") in LAZY_FAMILIES
        assert ("reduce_scatter", "ring") in LAZY_FAMILIES
        assert ("allreduce", "ring") in LAZY_FAMILIES
        assert ("allreduce", "recursive_doubling") in LAZY_FAMILIES
        for coll, alg in LAZY_FAMILIES:
            assert lookup(coll, alg, 8) is not None

    def test_out_of_scope_returns_none(self):
        assert lookup("bcast", "knomial", 8) is None        # family
        assert lookup("allgather", "ring", 1) is None       # p too small
        assert lookup("allgather", "ring", 8, k=3) is None  # explicit k
        assert lookup("allgather", "ring", 8, root=3) is None
        # Recursive doubling needs a power of two (the registry builder
        # folds odd remainders, which breaks rank symmetry).
        assert lookup("allreduce", "recursive_doubling", 12) is None
        assert lookup("allreduce", "recursive_doubling", 16) is not None

    def test_duck_types_the_schedule_surface(self):
        lazy = lookup("allgather", "ring", 8)
        assert lazy.is_lazy
        assert lazy.nranks == 8
        assert lazy.describe().endswith("(lazy)")
        assert lazy.fingerprint() == lookup("allgather", "ring", 8).fingerprint()
        assert lazy.block_map(4096).nblocks == lazy.nblocks


class TestGeneratorFaithfulness:
    @pytest.mark.parametrize("coll,alg", sorted(LAZY_FAMILIES))
    def test_programs_match_registry_builder(self, coll, alg):
        p = 8
        lazy = lookup(coll, alg, p)
        cols = build_schedule(coll, alg, p).columns()
        for r in range(p):
            t = lazy._tables(r)
            lo, hi = cols.op_ptr[r], cols.op_ptr[r + 1]
            seg = cols.seg_bounds[lo:hi + 1]
            got = (t.kinds.tolist(), t.peers.tolist(),
                   [[b] for b in t.block.tolist()], t.steps_raw.tolist())
            want = (
                cols.kinds[lo:hi].tolist(),
                cols.peers[lo:hi].tolist(),
                [cols.seg_blocks[a:b].tolist()
                 for a, b in zip(seg.tolist(), seg[1:].tolist())],
                cols.steps_raw[cols.step_ptr[r]:cols.step_ptr[r + 1]].tolist(),
            )
            assert got == want, (
                f"{coll}/{alg} rank {r}: generated tables diverge "
                f"from the registry builder's columns"
            )

    @pytest.mark.parametrize("coll,alg", sorted(LAZY_FAMILIES))
    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_simulated_costs_match_builder(self, coll, alg, p):
        lazy = lookup(coll, alg, p)
        built = build_schedule(coll, alg, p)
        machine = reference(p)
        for nbytes in (64, 4096):
            ref = simulate(built, machine, nbytes, engine="materialized")
            col = simulate(lazy, machine, nbytes, engine="collapsed")
            assert col.engine == "collapsed" and col.nclasses == 1
            assert col.time == ref.time, (coll, alg, p, nbytes)
            assert list(col.rank_times) == list(ref.rank_times)
            assert col.messages == ref.messages

    def test_classes_is_single_class_and_cached(self):
        lazy = lookup("allreduce", "ring", 16)
        c = lazy.classes(reference(16), 4096)
        assert c.nclasses == 1
        assert c.nranks == 16
        assert lazy.classes(reference(16), 4096) is c


class TestMaterialize:
    def test_small_p_round_trips(self):
        lazy = lookup("allgather", "ring", 8)
        explicit = lazy.materialize()
        assert explicit.fingerprint() == build_schedule(
            "allgather", "ring", 8).fingerprint()

    def test_large_p_refuses(self):
        # allreduce/ring at p=2048 would expand to ~4p^2 = 16.8M ops —
        # over the guard; the collapsed engine is the supported path.
        lazy = lookup("allreduce", "ring", 2048)
        est = len(lazy._tables(0).kinds) * lazy.nranks
        assert est > _MATERIALIZE_MAX_OPS
        with pytest.raises(ScheduleError):
            lazy.materialize()

    # allreduce/ring at p = 1024 is ~4.19M ops, just over the cap; 65537
    # bytes is not a multiple of its 1024 blocks, so collapse refuses it.
    # ``None`` marks a run that succeeds collapsed; otherwise the
    # refusal's own words, after the cap, and whether it may advise the
    # collapsed engine.
    @pytest.mark.parametrize("engine,nbytes,reason,advise", [
        ("collapsed", 65536, None, None),
        ("auto", 65536, None, None),
        ("materialized", 65536, "", True),
        ("collapsed", 65537,
         "the collapsed engine refused it: nbytes=65537 is not a "
         "multiple of 1024 blocks", False),
        ("auto", 65537,
         "the collapsed engine refused it: nbytes=65537 is not a "
         "multiple of 1024 blocks", False),
        ("materialized", 65537,
         "the collapsed engine needs nbytes to be a multiple of 1024 "
         "blocks, not 65537", False),
    ])
    def test_refusal_names_the_cause(self, engine, nbytes, reason, advise):
        lazy = lookup("allreduce", "ring", 1024)
        machine = reference(1024)
        if reason is None:
            res = simulate(lazy, machine, nbytes, engine=engine)
            assert res.engine == "collapsed" and res.nclasses == 1
            return
        with pytest.raises(ScheduleError) as err:
            simulate(lazy, machine, nbytes, engine=engine)
        text = str(err.value)
        assert f"over the {_MATERIALIZE_MAX_OPS}-op cap" in text
        assert reason in text
        assert ("use the collapsed engine" in text) is advise

    def test_symmetry_probes_allocate_nothing_of_size_p(self):
        # Seven probe ranks are picked without a p-element set: at
        # p = 2^20 the only O(p) allocation left is the partition's
        # 4 MiB label vector.
        import tracemalloc

        p = 1 << 20
        machine = reference(p)
        tracemalloc.start()
        try:
            classes = lookup("allreduce", "recursive_doubling", p).classes(
                machine, 64
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert classes.nclasses == 1
        assert peak < 16 << 20, f"peak {peak / 2**20:.1f} MiB"

    def test_collapsed_run_allocates_nothing_of_size_p(self):
        # With the partition warm, a collapsed run costs its classes:
        # the per-rank times are expanded only when read (8 MiB of
        # float64 at p = 2^20 when every run gathered them).
        import tracemalloc

        p = 1 << 20
        machine = reference(p)
        lazy = lookup("allreduce", "recursive_doubling", p)
        simulate(lazy, machine, 64)
        tracemalloc.start()
        try:
            res = simulate(lazy, machine, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.engine, res.nclasses) == ("collapsed", 1)
        assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"
        times = res.rank_times
        assert len(times) == p
        assert (times == res.time).all()
        assert res.rank_times is times

    def test_auto_simulates_lazy_without_materializing(self):
        # The whole point: a p=4096 lazy schedule simulates through the
        # collapsed engine without ever expanding per-rank step lists.
        lazy = lookup("allgather", "ring", 4096)
        res = simulate(lazy, reference(4096), 65536)
        assert res.engine == "collapsed"
        assert res.nclasses == 1
        assert len(res.rank_times) == 4096
