"""Tests for timeline analysis (:mod:`repro.simnet.trace`) and the
Perfetto export of a bare simulator result (:mod:`repro.obs.export`)."""

import json

import pytest

from repro.core.registry import build_schedule
from repro.errors import ReproError, TraceError
from repro.obs.export import to_perfetto, write_perfetto
from repro.simnet import frontier, reference, simulate
from repro.simnet.trace import timeline_stats


@pytest.fixture(scope="module")
def traced_result():
    sched = build_schedule("allreduce", "recursive_multiplying", 16, k=4)
    return simulate(sched, frontier(16, 1), 4096, collect_timeline=True), 16


class TestChromeTrace:
    def test_requires_timeline(self):
        sched = build_schedule("bcast", "binomial", 4)
        res = simulate(sched, reference(4), 8)  # no collect_timeline
        with pytest.raises(TraceError, match="timeline"):
            to_perfetto(res)
        with pytest.raises(TraceError, match="timeline"):
            timeline_stats(res, 4)
        # TraceError is part of the package hierarchy, so blanket
        # `except ReproError` handlers still catch it.
        assert issubclass(TraceError, ReproError)

    def test_timeline_present_no_raise(self, traced_result):
        res, _ = traced_result
        assert to_perfetto(res)["traceEvents"]

    def test_event_structure(self, traced_result):
        """One simulated track (pid 1000), no host spans: a duration
        event per message on its source rank's row, and the makespan as
        the one instant."""
        res, p = traced_result
        doc = to_perfetto(res)
        events = doc["traceEvents"]
        xfers = [e for e in events if e["ph"] == "X"]
        marks = [e for e in events if e["ph"] == "i"]
        assert len(xfers) == res.messages
        assert [m["name"] for m in marks] == ["makespan"]
        assert {e["pid"] for e in xfers} == {1000}
        for e in xfers:
            assert e["dur"] >= 0
            assert 0 <= e["tid"] < p
            assert e["args"]["link"] in ("intra", "inter", "global")

    def test_times_scaled_to_microseconds(self, traced_result):
        res, _ = traced_result
        doc = to_perfetto(res)
        last = max(e["ts"] for e in doc["traceEvents"] if "ts" in e)
        assert last == pytest.approx(res.time_us, rel=0.05)

    def test_written_file_is_loadable_json(self, traced_result, tmp_path):
        res, _ = traced_result
        path = write_perfetto(res, path=tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestTimelineStats:
    def test_busy_time_and_classes(self, traced_result):
        res, p = traced_result
        stats = timeline_stats(res, p)
        assert stats.makespan == res.time
        assert sum(stats.busy_time.values()) > 0
        # a 1-ppn machine has no intranode transfers
        assert "intra" not in stats.busy_time

    def test_max_concurrent_bounded_by_messages(self, traced_result):
        res, p = traced_result
        stats = timeline_stats(res, p)
        assert 1 <= stats.max_concurrent <= res.messages

    def test_recv_bytes_conservation(self, traced_result):
        res, p = traced_result
        stats = timeline_stats(res, p)
        assert sum(stats.per_rank_recv_bytes) == (
            res.intra_bytes + res.inter_bytes
        )

    def test_symmetric_algorithm_has_even_load(self, traced_result):
        """Recursive multiplying is rank-symmetric on a power-of-k core:
        inbound bytes are identical across ranks."""
        res, p = traced_result
        stats = timeline_stats(res, p)
        assert stats.recv_imbalance == pytest.approx(1.0)

    def test_rooted_algorithm_has_uneven_load(self):
        sched = build_schedule("gather", "binomial", 16)
        res = simulate(sched, reference(16), 1600, collect_timeline=True)
        stats = timeline_stats(res, 16)
        # the root absorbs everything
        assert stats.recv_imbalance > 4
        assert stats.per_rank_recv_bytes[0] > 0

    def test_utilization(self, traced_result):
        res, p = traced_result
        stats = timeline_stats(res, p)
        assert stats.utilization("inter") > 0
        assert stats.utilization("nonexistent") == 0.0
