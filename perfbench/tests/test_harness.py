"""The estimator, the run loop and the trace aggregation on synthetic
input — nothing here touches the program being measured."""

from pathlib import Path

import pytest

from perfbench import harness
from perfbench.spans import Tracer


def test_sum_of_minima_takes_each_units_quietest_sample():
    # Every repetition has one disturbed unit, a different one each
    # time: no whole cycle is quiet, but every unit has a quiet sample.
    samples = {
        "a": [1.0, 1.0, 9.0],
        "b": [2.0, 9.0, 2.0],
        "c": [9.0, 3.0, 3.0],
    }
    assert harness.sum_of_minima(samples) == 6.0
    whole_cycles = [sum(ts[r] for ts in samples.values()) for r in range(3)]
    assert min(whole_cycles) == 12.0  # what min-of-cycles would report


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.10) == 11
    assert harness.percentile(values, 0.99) == 100
    assert harness.percentile([5.0], 0.99) == 5.0


class Synthetic(harness.Workload):
    """Three units; 'bad' fails its check on the second repetition."""

    name = "synthetic"

    def __init__(self):
        super().__init__(seed=0, quick=True, state_dir=Path("."))
        self.begun = 0
        self.closed = 0
        self.after_calls = 0
        self.units = [
            harness.Unit("ok", "layer.a", run=lambda ctx: None,
                         staged=self._staged),
            harness.Unit("bad", "layer.b", run=self._bad,
                         after=self._after),
            harness.Unit("boom", "layer.c", run=self._boom),
        ]

    def begin_rep(self):
        self.begun += 1
        return {"rep": self.begun}

    def close_rep(self, ctx):
        self.closed += 1

    def _staged(self, ctx, tracer):
        with tracer.span("stage/one", "layer.a.inner"):
            pass
        with tracer.span("stage/two", "layer.a.replay"):
            pass

    def _bad(self, ctx):
        return "wrong result" if ctx["rep"] == 2 else None

    def _after(self, ctx):
        self.after_calls += 1

    def _boom(self, ctx):
        if ctx["rep"] == 1:
            raise RuntimeError("unit raised")


def test_run_loop_counts_attempts_failures_and_samples():
    wl = Synthetic()
    result = harness.run_workload(
        wl, seconds=0, fixed_reps=3, setup_launches=False
    )
    assert result.reps == 3 and wl.begun == 3 and wl.closed == 3
    assert result.attempted == 9
    assert {u: len(ts) for u, ts in result.samples.items()} == {
        "ok": 3, "bad": 3, "boom": 3,
    }
    assert len(result.cycle_times) == 3
    # One wrong result, one exception; the after-hook is skipped for a
    # unit that already failed.
    assert len(result.failures) == 2
    assert "rep 1 bad: wrong result" in result.failures[1]
    assert "RuntimeError" in result.failures[0]
    assert wl.after_calls == 2
    assert result.noise_ratio >= 1.0


def test_traced_run_alternates_plain_and_staged_repetitions():
    wl = Synthetic()
    tracer = Tracer()
    result = harness.run_workload(
        wl, seconds=0, tracer=tracer, fixed_reps=4,
        setup_launches=False,
    )
    assert len(result.samples["ok"]) == 2
    assert len(result.staged_samples["ok"]) == 2
    assert not result.setup_times
    names = [s[0] for s in tracer.spans]
    assert names.count("ok") == 2 and names.count("stage/one") == 2
    # Stages inherit the unit id and point at their unit's span.
    for name, _layer, t0, t1, parent, unit, rep in tracer.spans:
        assert t1 >= t0 and rep in (1, 3)
        if name.startswith("stage/"):
            assert unit == "ok" and tracer.spans[parent][0] == "ok"


def test_trace_aggregate_self_time_and_cover():
    tracer = Tracer()
    # rep 0: unit u = 10 s with children 4 s + 3 s; rep 1: 8 s, 2 + 3.
    tracer.spans = [
        ("u", "L", 0.0, 10.0, None, "u", 0),
        ("u/x", "L.x", 1.0, 5.0, 0, "u", 0),
        ("u/y", "L.replay", 5.0, 8.0, 0, "u", 0),
        ("probe", "P", 20.0, 21.0, None, None, 0),
        ("u", "L", 30.0, 38.0, None, "u", 1),
        ("u/x", "L.x", 31.0, 33.0, 4, "u", 1),
        ("u/y", "L.replay", 33.0, 36.0, 4, "u", 1),
    ]
    agg = harness.TraceAggregate(tracer, {"u": [9.0, 7.5], "v": [1.0]})
    assert agg.min_self["u"] == pytest.approx(3.0)   # min(10-7, 8-5)
    assert agg.layer_s("L.x") == pytest.approx(2.0)
    assert agg.plain_s("u") == 7.5 and agg.plain_s("") == 8.5
    # Covered: leaf spans inside units, replays and probes excluded.
    assert agg.covered_s() == pytest.approx(2.0)


def test_span_file_has_the_documented_shape(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", "A", unit="u1"):
        with tracer.span("inner", "B"):
            pass
    tracer.write(tmp_path / "t.json")
    import json

    spans = json.loads((tmp_path / "t.json").read_text())
    assert [s["name"] for s in spans] == ["outer", "inner"]
    assert set(spans[0]) == {
        "name", "layer", "start", "end", "parent", "unit_id", "rep",
    }
    assert spans[1]["parent"] == 0 and spans[1]["unit_id"] == "u1"
