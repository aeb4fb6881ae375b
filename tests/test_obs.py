"""Unit tests for the observability layer (:mod:`repro.obs`):
metrics registry, span tracer, Perfetto export, and the shared
``to_dict`` stats protocol."""

from __future__ import annotations

import json
import sys
import threading

import pytest

import repro.bench.sweep as sweep_mod
import repro.compile.cache as compile_cache
from repro.check import global_check_cache, run_checks
from repro.core.cache import CacheStats, ContentCache, ScheduleCache
from repro.bench.sweep import SweepPoint, SweepStats, run_sweep, sweep_stats
from repro.errors import ObsError
from repro.obs import OBS, Obs, get_obs
from repro.obs.export import to_perfetto
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
)
from repro.obs.tracing import SimTimeline, TraceContext, Tracer
from repro.simnet import reference, simulate
from repro.simnet.simulate import FALLBACK_REASONS
from repro.simnet.trace import TimelineStats, timeline_stats
from repro.core.primitives import shared_phase, sharing_phases
from repro.core.registry import build_schedule
from repro.core.ring import kring_allgather
from repro.store import DiskStore


@pytest.fixture(autouse=True)
def clean_global_obs():
    """Every test starts and ends with the global scope off and empty."""
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


class TestCounters:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        c.inc()
        c.inc(4)
        assert reg.snapshot().value("requests_total") == 5

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObsError, match="must be >= 0"):
            reg.counter("x_total").inc(-1)

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", cache="a").inc()
        reg.counter("hits_total", cache="b").inc(2)
        snap = reg.snapshot()
        assert snap.value("hits_total", cache="a") == 1
        assert snap.value("hits_total", cache="b") == 2
        assert snap.total("hits_total") == 3

    def test_get_or_create_returns_same_handle(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert reg.counter("a_total") is not reg.counter("a_total", x="1")


class TestGauges:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert reg.snapshot().value("depth") == 12

    def test_set_max_keeps_peak(self):
        reg = MetricsRegistry()
        g = reg.gauge("peak")
        g.set_max(3)
        g.set_max(9)
        g.set_max(5)
        assert reg.snapshot().value("peak") == 9


class TestHistograms:
    def test_observations_land_in_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = reg.snapshot()
        series = snap.get("lat_seconds")
        assert series.count == 4
        assert series.value == pytest.approx(55.55)  # histogram sum
        # 50.0 overflows the last bucket; it is in count, not counts
        assert sum(series.counts) == 3

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)


class TestSnapshot:
    def test_delta_subtracts_counters(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total")
        c.inc(5)
        before = reg.snapshot()
        c.inc(3)
        after = reg.snapshot()
        assert after.delta(before).value("n_total") == 3

    def test_reset_zeroes_but_keeps_handles_live(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total")
        c.inc(7)
        reg.reset()
        assert reg.snapshot().value("n_total") == 0
        c.inc()  # the pre-reset handle still records
        assert reg.snapshot().value("n_total") == 1

    def test_merge_adds_counters_and_maxes_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n_total").inc(2)
        a.gauge("peak").set(10)
        b.counter("n_total").inc(3)
        b.gauge("peak").set(4)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap.value("n_total") == 5
        assert snap.value("peak") == 10

    def test_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("n_total", kind="x").inc(2)
        doc = json.loads(reg.snapshot().to_json())
        assert doc  # non-empty, JSON-serializable

    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry()
        reg.counter("repro_n_total", cache="s").inc(2)
        reg.gauge("repro_depth").set(3)
        reg.histogram("repro_lat_seconds", buckets=(1.0,)).observe(0.5)
        text = reg.snapshot().to_prometheus()
        assert 'repro_n_total{cache="s"} 2' in text
        assert "# TYPE repro_n_total counter" in text
        assert "repro_depth 3" in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert "repro_lat_seconds_count 1" in text


class TestTracer:
    def test_span_nesting_records_parent(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        spans = {s.name: s for s in tr.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["inner"].t1 >= spans["inner"].t0

    def test_attach_timeline_requires_open_span(self):
        tr = Tracer()
        with pytest.raises(ObsError, match="span"):
            tr.attach_timeline(((0, 1, 8, 0.0, 1.0, "intra"),), label="x")

    def test_adopt_rewrites_foreign_trace(self):
        parent = Tracer()
        with parent.span("sweep"):
            ctx = TraceContext(
                trace_id=parent.trace_id,
                parent_span_id=parent.current_span_id(),
            )
        child = Tracer(ctx)
        with child.span("work"):
            pass
        parent.adopt(child.spans(), child.timelines())
        names = [s.name for s in parent.spans()]
        assert "work" in names
        assert all(s.trace_id == parent.trace_id for s in parent.spans())


class TestObsScope:
    def test_disabled_span_is_shared_noop(self):
        o = Obs()
        assert o.span("a") is o.span("b")

    def test_get_obs_resolves_default_and_explicit(self):
        mine = Obs()
        assert get_obs(None) is OBS
        assert get_obs(mine) is mine

    def test_global_identity_stable_across_toggle(self):
        before = id(OBS)
        OBS.enable()
        OBS.disable()
        assert id(OBS) == before

    def test_write_metrics_writes_json_and_prom(self, tmp_path):
        o = Obs(enabled=True)
        o.metrics.counter("repro_x_total").inc()
        path = o.write_metrics(tmp_path / "m.json")
        assert json.loads(path.read_text())
        assert "repro_x_total 1" in (tmp_path / "m.prom").read_text()


class TestPerfettoExport:
    def _traced(self):
        o = Obs(enabled=True)
        sched = build_schedule("allreduce", "recursive_multiplying", 8, k=2)
        res = simulate(sched, reference(8), 4096,
                       collect_timeline=True, obs=o)
        return o, res

    def test_host_and_sim_tracks_present(self):
        o, res = self._traced()
        doc = o.trace_dict()
        events = doc["traceEvents"]
        pids = {e["pid"] for e in events}
        assert 1 in pids            # host spans
        assert 1000 in pids         # first simulated timeline
        sim_events = [e for e in events
                      if e["pid"] == 1000 and e["ph"] == "X"]
        assert len(sim_events) == res.messages

    def test_sim_track_anchored_inside_host_span(self):
        o, _ = self._traced()
        doc = o.trace_dict()
        host = [e for e in doc["traceEvents"]
                if e["pid"] == 1 and e["ph"] == "X"
                and e["name"] == "simulate"]
        sim = [e for e in doc["traceEvents"]
               if e["pid"] == 1000 and e["ph"] == "X"]
        assert host and sim
        assert min(e["ts"] for e in sim) >= host[0]["ts"]

    def test_metadata_events_name_tracks(self):
        o, _ = self._traced()
        meta = [e for e in o.trace_dict()["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)

    def test_write_trace_is_loadable_json(self, tmp_path):
        o, _ = self._traced()
        path = o.write_trace(tmp_path / "t.json", metadata={"x": 1})
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_export_empty_scope(self):
        events = to_perfetto((), ())["traceEvents"]
        assert not [e for e in events if e["ph"] != "M"]


class TestStatsProtocol:
    """CacheStats / SweepStats / TimelineStats share frozen + to_dict."""

    def test_cache_stats(self):
        cache = ScheduleCache(maxsize=4)
        cache.get_or_build("bcast", "binomial", 4)
        cache.get_or_build("bcast", "binomial", 4)
        stats = cache.stats()
        assert isinstance(stats, CacheStats)
        d = stats.to_dict()
        assert d["hits"] == 1 and d["misses"] == 1
        with pytest.raises(AttributeError):
            stats.hits = 99  # frozen

    def test_sweep_stats(self):
        points = [SweepPoint("bcast", "binomial", n) for n in (64, 64, 128)]
        results = run_sweep(points, reference(4))
        stats = sweep_stats(results)
        assert isinstance(stats, SweepStats)
        d = stats.to_dict()
        assert d["points"] == 3 and d["errors"] == 0
        assert set(d) >= {"build_hit_rate", "sim_memo_rate"}

    def test_timeline_stats(self):
        sched = build_schedule("bcast", "binomial", 4)
        res = simulate(sched, reference(4), 64, collect_timeline=True)
        stats = timeline_stats(res, 4)
        assert isinstance(stats, TimelineStats)
        d = stats.to_dict()
        assert d["makespan"] == res.time
        assert json.dumps(d)  # JSON-serializable

    # Six cache kinds, one counting implementation: whatever the
    # lookups go through — a subclass with or without a disk tier, or a
    # plain instance behind its real entry point — the /metrics series
    # equal stats() exactly.  Each row returns (cache, lookup(i)) with
    # the cache bounded to two entries.
    BCASTS = [build_schedule("bcast", "binomial", 2 + i) for i in range(3)]

    @staticmethod
    def _schedule_row(store):
        cache = ScheduleCache(2, store=store)
        return cache, lambda i: cache.get_or_build("bcast", "binomial", 2 + i)

    @staticmethod
    def _phase_row():
        cache = ScheduleCache().phases

        def lookup(i):
            with sharing_phases(cache):
                return shared_phase(kring_allgather, 4 + i, 2)

        return cache, lookup

    @classmethod
    def _compiled_row(cls, store):
        cache = compile_cache.CompiledCache(2, store=store)
        return cache, lambda i: cache.get_or_compile(cls.BCASTS[i])

    @classmethod
    def _check_row(cls):
        return global_check_cache(), lambda i: run_checks(cls.BCASTS[i])

    @staticmethod
    def _classes_row():
        sched = build_schedule("allreduce", "ring", 4)  # 4 blocks: 3 residues
        return compile_cache._class_entries, lambda i: (
            compile_cache.get_or_classify(sched, reference(4), 1024 + i)
        )

    @staticmethod
    def _sim_row():
        return sweep_mod._SIM_MEMO, lambda i: sweep_mod.simulate_point(
            reference(4), SweepPoint("bcast", "binomial", 64 << i)
        )

    @pytest.mark.parametrize("row,disk", [
        ("schedule", False), ("schedule", True),
        ("compiled", False), ("compiled", True),
        ("check", False), ("classes", False), ("sim", False),
        ("phase", False),
    ])
    def test_cache_counters_equal_stats(self, tmp_path, monkeypatch, row, disk):
        make_row = getattr(self, f"_{row}_row")
        if row in ("schedule", "compiled"):
            cache, lookup = make_row(DiskStore(tmp_path) if disk else None)
        else:
            cache, lookup = make_row()
            monkeypatch.setattr(cache, "maxsize", 2)
        assert cache.name == row
        cache.clear()
        OBS.enable()
        # a a b c a: the third key evicts the first, whose re-fetch
        # evicts the second — and is a hit only where a disk tier kept it.
        for i in (0, 0, 1, 2, 0):
            lookup(i)
        OBS.disable()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (
            (2, 3, 2) if disk else (1, 4, 2)
        )
        snap = OBS.metrics.snapshot()
        assert (
            snap.value("repro_cache_lookups_total", cache=row, outcome="hit"),
            snap.value("repro_cache_lookups_total", cache=row, outcome="miss"),
            snap.value("repro_cache_evictions_total", cache=row),
        ) == (stats.hits, stats.misses, stats.evictions)
        cache.clear()

    # Every refusal of the collapsed engine is counted under its reason:
    # each row is one simulate() that considered collapsing and ran
    # materialized (explicit requests and auto alike), plus the two
    # controls that count nothing — a collapsed run and an explicit
    # materialized one.
    @staticmethod
    def _fallback_run(reason):
        from repro.core.blocks import BlockMap
        from repro.core.lazy import lookup
        from repro.faults import Crash, FaultPlan
        from repro.simnet.machines import frontier
        from repro.simnet.noise import NoiseModel

        ring, m8 = build_schedule("allgather", "ring", 8), reference(8)
        return {
            "noise": lambda: simulate(ring, m8, 4096, engine="collapsed",
                                      noise=NoiseModel(sigma=0.1, seed=1)),
            "faults": lambda: simulate(
                ring, m8, 4096, faults=FaultPlan(crashes=(Crash(1, 0),))
            ),
            "timeline": lambda: simulate(ring, m8, 4096, engine="collapsed",
                                         collect_timeline=True),
            "block_map": lambda: simulate(ring, m8, 4096, engine="collapsed",
                                          block_map=BlockMap(4096, 8)),
            "root": lambda: simulate(
                build_schedule("bcast", "knomial", 8, k=2, root=3), m8,
                4096, engine="collapsed",
            ),
            "machine": lambda: simulate(ring, frontier(4, 2), 4096,
                                        engine="collapsed"),
            # A lazy schedule refuses a total that is not a multiple of
            # its blocks.
            "class_analysis": lambda: simulate(
                lookup("allgather", "ring", 8), m8, 4097
            ),
            "small_p": lambda: simulate(ring, m8, 4096),
            "degenerate": lambda: simulate(
                build_schedule("bcast", "knomial", 256, k=2),
                reference(256), 4096,
            ),
            None: lambda: simulate(ring, m8, 4096, engine="collapsed"),
            "explicit": lambda: simulate(ring, m8, 4096,
                                         engine="materialized"),
        }[reason]

    @pytest.mark.parametrize("reason", [
        *FALLBACK_REASONS, None, "explicit",
    ])
    def test_engine_fallbacks_counted_by_reason(self, reason):
        run = self._fallback_run(reason)
        off = run()
        assert OBS.metrics.snapshot().total(
            "repro_engine_fallbacks_total"
        ) == 0
        OBS.enable()
        on = run()
        OBS.disable()
        assert (on.engine, on.time, on.fallback) == (
            off.engine, off.time, off.fallback
        )
        assert on.engine == ("materialized" if reason else "collapsed")
        snap = OBS.metrics.snapshot()
        counted = reason if reason in FALLBACK_REASONS else None
        assert snap.total("repro_engine_fallbacks_total") == (
            1 if counted else 0
        )
        if counted:
            assert snap.value(
                "repro_engine_fallbacks_total", reason=counted
            ) == 1

    def test_inactive_fault_plan_is_no_fault_plan(self):
        """A ``FaultPlan`` that injects nothing neither blocks the
        collapsed engine nor counts a ``faults`` fallback."""
        from repro.faults import FaultPlan

        ring, m8 = build_schedule("allgather", "ring", 8), reference(8)
        plain = simulate(ring, m8, 4096, engine="collapsed")
        OBS.enable()
        idle = simulate(ring, m8, 4096, engine="collapsed",
                        faults=FaultPlan())
        OBS.disable()
        assert (idle.engine, idle.fallback) == ("collapsed", None)
        assert (idle.time, list(idle.rank_times)) == (
            plain.time, list(plain.rank_times)
        )
        assert OBS.metrics.snapshot().total(
            "repro_engine_fallbacks_total"
        ) == 0

    def test_concurrent_lookups_lose_no_count(self):
        """More threads than cores hammering one small cache: every
        lookup is counted exactly once, in stats() and in /metrics."""
        cache = ContentCache("stress", 4)
        nthreads, rounds = 8, 400
        OBS.enable()

        def worker(seed):
            for i in range(rounds):
                key = (seed * 7 + i * 3) % 10
                value, _hit = cache.get_or_make(key, lambda: ("made", key))
                assert value == ("made", key)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(nthreads)
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        OBS.disable()
        assert not any(t.is_alive() for t in threads)
        stats = cache.stats()
        assert stats.lookups == nthreads * rounds
        assert len(cache) <= 4
        snap = OBS.metrics.snapshot()
        assert snap.total("repro_cache_lookups_total") == stats.lookups
        assert snap.value(
            "repro_cache_evictions_total", cache="stress"
        ) == stats.evictions

    def test_all_to_dicts_are_plain_json(self):
        for d in (
            CacheStats(hits=1, misses=2, evictions=0).to_dict(),
            SweepStats(points=1, errors=0, build_hits=1,
                       sim_hits=0).to_dict(),
        ):
            assert json.loads(json.dumps(d)) == d
