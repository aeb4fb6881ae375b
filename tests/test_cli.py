"""Tests for the command-line entry points (:mod:`repro.cli`)."""

import json

import pytest

from repro.cli import main_bench, main_tune, main_validate


class TestBench:
    def test_list(self, capsys):
        assert main_bench(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig8a" in out and "table1" in out

    def test_no_args_lists(self, capsys):
        assert main_bench([]) == 0
        assert "fig9a" in capsys.readouterr().out

    def test_run_table1(self, capsys):
        assert main_bench(["table1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "knomial" in out

    def test_unknown_experiment(self, capsys):
        assert main_bench(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_eq13(self, capsys):
        assert main_bench(["eq13"]) == 0
        assert "eq. (13)" in capsys.readouterr().out


class TestTune:
    def test_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "tuned.json"
        rc = main_tune(
            [
                "--machine", "frontier", "--nodes", "4", "--ppn", "1",
                "--min-bytes", "8", "--max-bytes", "4096",
                "-o", str(out_file),
            ]
        )
        assert rc == 0
        payload = json.loads(out_file.read_text())
        assert payload["table"]["rules"]
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_stdout_json(self, capsys):
        rc = main_tune(
            ["--machine", "reference", "--nodes", "4",
             "--min-bytes", "8", "--max-bytes", "512"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"]["name"].startswith("tuned-")

    def test_bad_machine_rejected(self, capsys):
        rc = main_tune(["--machine", "summit"])
        assert rc == 2
        assert "unknown machine" in capsys.readouterr().err

    def test_registry_name_machine(self, capsys):
        rc = main_tune(
            ["--machine", "reference-4",
             "--min-bytes", "8", "--max-bytes", "512"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"]["name"] == "tuned-reference-4"

    def test_engine_flag_matches_materialized(self, capsys):
        argv = ["--machine", "reference", "--nodes", "4",
                "--min-bytes", "8", "--max-bytes", "512"]
        assert main_tune(argv + ["--engine", "collapsed"]) == 0
        collapsed = json.loads(capsys.readouterr().out)
        assert main_tune(argv + ["--engine", "materialized"]) == 0
        materialized = json.loads(capsys.readouterr().out)
        assert collapsed["table"]["rules"] == materialized["table"]["rules"]

    def test_reference_requires_ppn_1(self, capsys):
        rc = main_tune(["--machine", "reference", "--ppn", "2"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_output_warm_starts_serve_grid(self, tmp_path, monkeypatch,
                                           capsys):
        """repro-tune -o writes the document repro-serve --grid reads:
        every boot point replays a recorded timing, none simulates, and
        the service exports the file's bytes back at /config."""
        import repro.bench.sweep
        from repro.server import TuningService

        grid = tmp_path / "tuned.json"
        assert main_tune(["--machine", "reference", "--nodes", "4",
                          "--min-bytes", "64", "--max-bytes", "1024",
                          "-o", str(grid)]) == 0

        def no_simulation(points, *args, **kwargs):
            raise AssertionError(f"warm boot simulated {len(points)} points")

        monkeypatch.setattr(repro.bench.sweep, "run_sweep", no_simulation)
        service = TuningService("reference-4", [64, 256, 1024], grid=grid)
        assert service.warm_started
        assert service.config.to_json() + "\n" == grid.read_text()


class TestRecover:
    def test_indivisible_p_rejected(self, capsys):
        """--p must split into whole nodes of --ppn, as repro-trace
        demands, instead of silently simulating p // ppn * ppn ranks."""
        from repro.cli import main_recover

        rc = main_recover(["allreduce", "knomial", "--p", "10",
                           "--ppn", "4", "--backend", "sim"])
        assert rc == 2
        assert "not divisible" in capsys.readouterr().err


class TestValidate:
    def test_full_sweep_small(self, capsys):
        assert main_validate(["--max-p", "6"]) == 0
        out = capsys.readouterr().out
        assert "all correct" in out

    def test_single_collective(self, capsys):
        assert main_validate(["--collective", "reduce", "--max-p", "9"]) == 0

    def test_single_algorithm(self, capsys):
        rc = main_validate(
            ["--collective", "allreduce", "--algorithm", "kring",
             "--max-p", "8"]
        )
        assert rc == 0

    def test_unknown_algorithm(self, capsys):
        rc = main_validate(
            ["--collective", "bcast", "--algorithm", "nope", "--max-p", "4"]
        )
        assert rc == 2


class TestValidateDump:
    def test_dump_writes_verified_schedule(self, tmp_path, capsys):
        import json

        path = tmp_path / "kring.json"
        rc = main_validate(
            ["--collective", "allreduce", "--algorithm", "kring",
             "--dump", str(path), "--dump-p", "8", "--dump-k", "4"]
        )
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["collective"] == "allreduce"
        assert len(payload["programs"]) == 8

    def test_dump_requires_algorithm(self, tmp_path, capsys):
        rc = main_validate(["--dump", str(tmp_path / "x.json")])
        assert rc == 2
        assert "needs" in capsys.readouterr().err

    def test_dump_invalid_config(self, tmp_path, capsys):
        rc = main_validate(
            ["--collective", "bcast", "--algorithm", "binomial",
             "--dump", str(tmp_path / "x.json"), "--dump-k", "4"]
        )
        assert rc == 2


class TestBenchOutput:
    def test_report_written_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        rc = main_bench(["table1", "-o", str(path)])
        assert rc == 0
        text = path.read_text()
        assert "table1" in text and "PASS" in text


class TestTrace:
    def test_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main_trace

        out = tmp_path / "trace.json"
        rc = main_trace([
            "allreduce", "recursive_multiplying",
            "--p", "16", "--k", "4", "--nbytes", "4096",
            "-o", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        pids = {e["pid"] for e in events}
        assert 1 in pids and 1000 in pids  # host + sim tracks merged
        metrics = json.loads((tmp_path / "trace-metrics.json").read_text())
        assert metrics
        prom = (tmp_path / "trace-metrics.prom").read_text()
        for series in ("repro_cache_lookups_total",
                       "repro_engine_events_total",
                       "repro_sweep_points_total"):
            assert series in prom
        assert "wrote" in capsys.readouterr().out

    def test_trace_leaves_global_obs_disabled(self, tmp_path):
        from repro.cli import main_trace
        from repro.obs import OBS

        rc = main_trace([
            "bcast", "knomial", "--p", "8", "--k", "2",
            "--nbytes", "512", "-o", str(tmp_path / "t.json"),
        ])
        assert rc == 0
        assert not OBS.enabled

    def test_indivisible_ppn_rejected(self, tmp_path, capsys):
        from repro.cli import main_trace

        rc = main_trace([
            "bcast", "knomial", "--p", "9", "--ppn", "2",
            "-o", str(tmp_path / "t.json"),
        ])
        assert rc == 2
        assert "divisible" in capsys.readouterr().err


class TestMetricsOut:
    def test_tune_metrics_out(self, tmp_path, capsys):
        from repro.cli import main_tune

        mpath = tmp_path / "tune-metrics.json"
        rc = main_tune([
            "--machine", "reference", "--nodes", "4",
            "--min-bytes", "64", "--max-bytes", "4096",
            "-o", str(tmp_path / "table.json"),
            "--metrics-out", str(mpath),
        ])
        assert rc == 0
        assert json.loads(mpath.read_text())
        assert "repro_sweep_points_total" in (
            tmp_path / "tune-metrics.prom").read_text()


class TestBenchPerf:
    """``repro-bench-perf`` with the six measures replaced by canned
    outcomes: the verb's exit codes and what it prints where."""

    CONFORMING = {
        "sweep": {"cache_speedup": 2.3},
        "recovery": {"overhead": 1.1},
        "obs": {"overhead": 1.1},
        "durability": {"overhead": 0.98, "end_to_end": 1.08,
                       "warm_speedup": 1.5},
        "scale": {"sweep_wall_s": 21.7, "sublinear_ratio": 97.0},
        "serve": {"warm_speedup": 300.0},
    }

    @classmethod
    def _run(cls, monkeypatch, capsys, **outcomes):
        """Exit code, stdout lines and stderr of ``main_bench_perf([])``;
        an outcome that is an exception is raised, not returned."""
        from repro.bench import perf
        from repro.cli import main_bench_perf

        def measure(outcome):
            def run():
                if isinstance(outcome, BaseException):
                    raise outcome
                return outcome
            return run

        outcomes = {**cls.CONFORMING, **outcomes}
        assert set(outcomes) == set(perf._MEASURES)
        monkeypatch.setattr(
            perf, "_MEASURES", {m: measure(o) for m, o in outcomes.items()}
        )
        rc = main_bench_perf([])
        out, err = capsys.readouterr()
        return rc, out.splitlines(), err

    def test_all_gates_hold(self, monkeypatch, capsys):
        rc, out, err = self._run(monkeypatch, capsys)
        assert rc == 0 and err == ""
        assert len([ln for ln in out if ln.endswith(" ok")]) == 9
        assert out[-1] == "perf gates: 9 of 9 hold"

    def test_violated_gate_exits_1(self, monkeypatch, capsys):
        rc, out, err = self._run(
            monkeypatch, capsys,
            durability={"overhead": 1.2, "end_to_end": 1.08,
                        "warm_speedup": 1.5},
        )
        assert rc == 1
        assert "durability.overhead" in err
        assert "1.2" in err and "1.05" in err
        assert len([ln for ln in out if ln.endswith(" ok")]) == 8

    def test_identity_violation_fails_only_its_rows(self, monkeypatch,
                                                    capsys):
        from repro.errors import ReproError

        rc, out, err = self._run(
            monkeypatch, capsys,
            scale=ReproError("engines differ at p=4096"),
        )
        assert rc == 1
        failed = [ln for ln in out if "FAIL" in ln]
        assert [ln.split()[0] for ln in failed] == [
            "scale.sweep_wall_s", "scale.sublinear_ratio"]
        assert all("engines differ at p=4096" in ln for ln in failed)
        assert len([ln for ln in out if ln.endswith(" ok")]) == 7
        assert "engines differ at p=4096" in err

    def test_interrupt_exits_130_without_a_verdict(self, monkeypatch,
                                                   capsys):
        rc, out, err = self._run(
            monkeypatch, capsys, obs=KeyboardInterrupt())
        assert rc == 130
        assert out == [] and "no verdict" in err

    def test_options_are_usage_errors(self, capsys):
        from repro.cli import main_bench_perf

        with pytest.raises(SystemExit) as exc:
            main_bench_perf(["--smoke"])
        assert exc.value.code == 2
        assert "--smoke" in capsys.readouterr().err
