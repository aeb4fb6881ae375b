"""Unit tests for the static-analysis suite (:mod:`repro.check`)."""

import json

import pytest

from repro.check import (
    Finding,
    global_check_cache,
    run_checks,
    check_schedule,
)
from repro.check.dataflow import check_dataflow
from repro.check.deadlock import check_channels, check_deadlock
from repro.check.findings import sort_findings
from repro.check.hazards import check_hazards
from repro.check.interp import OpRef, find_cycle, interpret, match_channels
from repro.check.modelcheck import check_model, has_model
from repro.cli import main_check
from repro.core.cache import ContentCache
from repro.core.analysis import critical_path_rounds, dependency_rounds
from repro.core.registry import build_schedule
from repro.errors import ScheduleError
from oracle import CopyOp, RankProgram, RecvOp, SendOp, Step, from_programs


def handmade(collective, programs, nblocks, root=None):
    return from_programs(
        collective=collective,
        algorithm="handmade",
        nranks=len(programs),
        nblocks=nblocks,
        programs=programs,
        root=root,
    )


def prog(rank, *steps):
    return RankProgram(rank=rank, steps=[Step(tuple(ops)) for ops in steps])


def pairwise_exchange():
    """Two ranks exchanging blocks in one step each (clean allgather)."""
    return handmade("allgather", [
        prog(0, [SendOp(1, (0,)), RecvOp(1, (1,))]),
        prog(1, [SendOp(0, (1,)), RecvOp(0, (0,))]),
    ], nblocks=2)


def send_then_recv():
    """Rendezvous-cyclic: both ranks send in step 0, recv in step 1."""
    return handmade("allgather", [
        prog(0, [SendOp(1, (0,))], [RecvOp(1, (1,))]),
        prog(1, [SendOp(0, (1,))], [RecvOp(0, (0,))]),
    ], nblocks=2)


class TestFindings:
    def test_severity_validated(self):
        with pytest.raises(ValueError, match="severity"):
            Finding(code="x", severity="fatal", message="m")

    def test_describe_includes_location(self):
        f = Finding(code="hazard-write-write", severity="error",
                    message="boom", rank=3, step=2, op="recv[0]<-1")
        text = f.describe()
        assert "rank 3" in text and "step 2" in text
        assert "recv[0]<-1" in text and "boom" in text

    def test_to_dict_omits_absent_location(self):
        f = Finding(code="model-rounds", severity="error", message="m")
        assert set(f.to_dict()) == {"code", "severity", "message"}

    def test_sort_most_severe_first(self):
        fs = sort_findings([
            Finding(code="b", severity="info", message="m"),
            Finding(code="a", severity="error", message="m", rank=1),
            Finding(code="c", severity="warning", message="m"),
        ])
        assert [f.severity for f in fs] == ["error", "warning", "info"]

    def test_report_counts_and_verdicts(self):
        report = run_checks(send_then_recv())
        assert report.errors == 1
        assert not report.ok and not report.strict_ok
        clean = run_checks(pairwise_exchange())
        assert clean.ok and clean.strict_ok
        assert "clean" in clean.describe()

    def test_report_to_dict_round_trips_json(self):
        doc = json.loads(json.dumps(run_checks(send_then_recv()).to_dict()))
        assert doc["ok"] is False
        assert doc["findings"][0]["code"] == "deadlock-rendezvous"


class TestInterp:
    def test_fifo_matching(self):
        s = pairwise_exchange()
        m = match_channels(s)
        assert m.send_to_recv[OpRef(0, 0, 0)] == OpRef(1, 0, 1)
        assert m.recv_to_send[OpRef(0, 0, 1)] == OpRef(1, 0, 0)
        assert not m.unmatched_sends and not m.unmatched_recvs

    def test_eager_completes_what_rendezvous_cannot(self):
        s = send_then_recv()
        assert not interpret(s).deadlocked
        stuck = interpret(s, eager_threshold=0)
        assert stuck.deadlocked and stuck.stuck == [0, 1]

    def test_threshold_regime_sizes_payloads(self):
        s = send_then_recv()
        # 1 KiB blocks under a 4 KiB eager limit: effectively eager.
        assert not interpret(s, eager_threshold=4096, nbytes=2048).deadlocked
        # The same schedule above the limit rendezvouses and hangs.
        assert interpret(s, eager_threshold=64, nbytes=2048).deadlocked

    def test_find_cycle_names_both_ranks(self):
        s = send_then_recv()
        cycle = find_cycle(s, interpret(s, eager_threshold=0))
        assert cycle is not None
        assert sorted(w.waiter.rank for w in cycle) == [0, 1]
        assert all(w.kind == "send" for w in cycle)

    def test_no_cycle_for_unsatisfiable_wait(self):
        s = handmade("allgather", [
            prog(0, [SendOp(1, (0,)), RecvOp(1, (1,))]),
            prog(1, [RecvOp(0, (0,))]),  # never sends
        ], nblocks=2)
        result = interpret(s)
        assert result.deadlocked
        assert find_cycle(s, result) is None


class TestDeadlock:
    def test_clean_schedule_no_findings(self):
        assert check_deadlock(pairwise_exchange()) == []

    def test_channel_audit_locates_ops(self):
        s = handmade("allgather", [
            prog(0, [SendOp(1, (0,)), RecvOp(1, (1,))]),
            prog(1, [RecvOp(0, (0,))]),
        ], nblocks=2)
        codes = {f.code: f for f in check_channels(s, match_channels(s))}
        starved = codes["channel-starved-recv"]
        assert (starved.rank, starved.step) == (0, 0)
        assert "never be satisfied" in starved.message

    def test_eager_deadlock_subsumes_rendezvous(self):
        # Mutually starved recvs hang even with unlimited buffering;
        # only the strongest (eager) finding is reported.
        s = handmade("allgather", [
            prog(0, [RecvOp(1, (1,))]),
            prog(1, [RecvOp(0, (0,))]),
        ], nblocks=2)
        codes = [f.code for f in check_deadlock(s)]
        assert "deadlock-eager" in codes
        assert "deadlock-rendezvous" not in codes

    def test_rendezvous_cycle_diagnostic(self):
        findings = check_deadlock(send_then_recv())
        (f,) = findings
        assert f.code == "deadlock-rendezvous"
        assert "cyclic wait among ranks [0, 1]" in f.message
        assert f.rank == 0 and f.step == 0 and f.op == "send[0]->1"


class TestHazards:
    def test_reduce_reduce_is_deterministic(self):
        s = handmade("allreduce", [
            prog(0, [RecvOp(1, (0,), reduce=True),
                     RecvOp(2, (0,), reduce=True)]),
            prog(1, [SendOp(0, (0,))]),
            prog(2, [SendOp(0, (0,))]),
        ], nblocks=1)
        assert check_hazards(s) == []

    def test_send_reduce_is_info_only(self):
        s = handmade("allreduce", [
            prog(0, [SendOp(1, (0,)), RecvOp(1, (0,), reduce=True)]),
            prog(1, [SendOp(0, (0,)), RecvOp(0, (0,), reduce=True)]),
        ], nblocks=1)
        findings = check_hazards(s)
        assert {f.code for f in findings} == {"hazard-send-reduce"}
        assert all(f.severity == "info" for f in findings)
        assert "staging buffer" in findings[0].message

    def test_copy_dest_vs_recv_is_error(self):
        s = handmade("allgather", [
            prog(0, [CopyOp(0, 1), RecvOp(1, (1,)), SendOp(1, (0,))]),
            prog(1, [SendOp(0, (1,)), RecvOp(0, (0,))]),
        ], nblocks=2)
        codes = {f.code for f in check_hazards(s)}
        assert "hazard-copy-recv" in codes

    def test_plain_recv_overwriting_sent_block_warns(self):
        s = handmade("allgather", [
            prog(0, [SendOp(1, (0,)), RecvOp(1, (0,))]),
            prog(1, [SendOp(0, (0,)), RecvOp(0, (0,))]),
        ], nblocks=2)
        findings = check_hazards(s)
        assert {f.code for f in findings} == {"hazard-read-write"}
        assert all(f.severity == "warning" for f in findings)

    def test_registry_algorithms_raise_no_hazard_errors(self):
        for coll, alg, p, k in [
            ("allreduce", "recursive_doubling", 8, None),
            ("barrier", "dissemination", 8, None),
            ("allgather", "ring", 8, None),
        ]:
            findings = check_hazards(build_schedule(coll, alg, p, k=k))
            assert all(f.severity == "info" for f in findings), (coll, alg)


class TestDataflow:
    def test_clean_allreduce(self):
        assert check_dataflow(build_schedule("allreduce", "ring", 6)) == []

    def test_postcondition_miss_names_rank(self):
        # Rank 1 never receives block 0: allgather postcondition fails.
        s = handmade("allgather", [
            prog(0, [RecvOp(1, (1,))]),
            prog(1, [SendOp(0, (1,))]),
        ], nblocks=2)
        findings = check_dataflow(s)
        posts = [f for f in findings if f.code == "dataflow-postcondition"]
        assert posts and posts[0].rank == 1
        assert "expected contributions" in posts[0].message

    def test_findings_annotated_with_step(self):
        s = handmade("bcast", [
            prog(0, [SendOp(1, (0,))], [RecvOp(1, (0,))]),
            prog(1, [RecvOp(0, (0,))], [SendOp(0, (0,))]),
        ], nblocks=1, root=0)
        assert check_dataflow(s) == []  # round trip is legal
        bad = handmade("bcast", [
            prog(0, [RecvOp(1, (0,))]),
            prog(1, [SendOp(0, (0,))]),
        ], nblocks=1, root=0)
        garbage = [f for f in check_dataflow(bad)
                   if f.code == "dataflow-garbage-send"]
        assert garbage[0].rank == 1 and garbage[0].step == 0
        assert garbage[0].message.startswith("step 0:")


class TestModelCheck:
    def test_registry_pair_clean(self):
        assert has_model("allreduce", "ring")
        sched = build_schedule("allreduce", "ring", 8)
        assert check_model(sched, 1 << 20) == []

    def test_pair_without_model_skipped(self):
        assert not has_model("scatter", "binomial")
        sched = build_schedule("scatter", "binomial", 8)
        assert check_model(sched, 1 << 20) == []
        report = run_checks(sched)
        assert report.meta.get("model") == "none registered for this pair"
        assert report.ok

    def test_single_rank_degenerates(self):
        sched = build_schedule("allreduce", "ring", 1)
        assert check_model(sched, 1 << 20) == []


class TestDependencyRounds:
    @pytest.mark.parametrize("collective,algorithm,p,k", [
        ("bcast", "knomial", 27, 3),
        ("allreduce", "ring", 8, None),
        ("allgather", "bruck", 7, 2),
        ("barrier", "dissemination", 16, None),
        ("reduce", "knomial", 13, 4),
    ])
    def test_agrees_with_simulated_critical_path(
        self, collective, algorithm, p, k
    ):
        sched = build_schedule(collective, algorithm, p, k=k)
        assert dependency_rounds(sched) == critical_path_rounds(sched)

    def test_rejects_eager_stuck_schedule(self):
        # Both ranks recv before they send: stuck even with buffering.
        s = handmade("allgather", [
            prog(0, [RecvOp(1, (1,))], [SendOp(1, (0,))]),
            prog(1, [RecvOp(0, (0,))], [SendOp(0, (1,))]),
        ], nblocks=2)
        with pytest.raises(ScheduleError, match="deadlock pass"):
            dependency_rounds(s)

    def test_rejects_starved_channel(self):
        s = handmade("allgather", [
            prog(0, [RecvOp(1, (1,))]),
            prog(1, [SendOp(0, (1,)), RecvOp(0, (0,))]),
        ], nblocks=2)
        with pytest.raises(ScheduleError, match="recvs but only"):
            dependency_rounds(s)


class TestCache:
    def test_hit_miss_eviction_accounting(self):
        cache = ContentCache("check", 2)
        reports = {}

        def make(tag):
            def run():
                reports[tag] = run_checks(
                    build_schedule("allreduce", "ring", 4),
                    cache=ContentCache("check", 8),  # throwaway, keep global clean
                )
                return reports[tag]
            return run

        r1, hit = cache.get_or_make(("a", 1, None), make("a"))
        assert not hit
        r2, hit = cache.get_or_make(("a", 1, None), make("a2"))
        assert hit and r2 is r1 and "a2" not in reports
        cache.get_or_make(("b", 1, None), make("b"))
        cache.get_or_make(("c", 1, None), make("c"))  # evicts "a"
        assert len(cache) == 2
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 3, 1)
        cache.clear()
        assert len(cache) == 0 and cache.stats().misses == 0

    def test_run_checks_memoizes_by_fingerprint(self):
        cache = ContentCache("check", 8)
        sched = build_schedule("allreduce", "recursive_doubling", 8)
        first = run_checks(sched, cache=cache)
        again = run_checks(
            build_schedule("allreduce", "recursive_doubling", 8),
            cache=cache,
        )
        assert again is first  # same content, cached object
        assert cache.stats().hits == 1
        # A different payload size is a different analysis.
        run_checks(sched, nbytes=1 << 16, cache=cache)
        assert cache.stats().misses == 2

    def test_global_cache_is_shared(self):
        assert global_check_cache() is global_check_cache()


class TestRunChecks:
    def test_clean_report_lists_all_passes(self):
        report = run_checks(build_schedule("allreduce", "ring", 8))
        assert report.checks == (
            "channels", "deadlock", "hazards", "dataflow", "model"
        )
        assert report.ok

    def test_broken_schedule_skips_execution_passes(self):
        report = run_checks(send_then_recv())
        assert "dataflow" not in report.checks
        assert report.meta["skipped"] == ["dataflow", "model"]

    def test_check_schedule_convenience(self):
        report = check_schedule("bcast", "knomial", 16, k=4)
        assert report.ok
        assert "bcast knomial p=16 k=4" in report.schedule

    def test_obs_counters_emitted(self):
        from repro.obs import OBS

        OBS.reset()
        OBS.enable()
        try:
            run_checks(send_then_recv(), cache=ContentCache("check", 8))
            snap = OBS.metrics.snapshot()
            assert snap.value("repro_check_runs_total", outcome="fail") == 1
            assert snap.value(
                "repro_check_findings_total",
                code="deadlock-rendezvous",
                severity="error",
            ) == 1
        finally:
            OBS.disable()
            OBS.reset()


class TestCheckCLI:
    def test_single_point_clean(self, capsys):
        assert main_check(["allreduce", "ring", "--p", "8"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "allreduce ring p=8" in out

    def test_json_report(self, capsys):
        assert main_check(["bcast", "knomial", "--p", "9", "--k", "3",
                           "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert "deadlock" in doc["checks"]

    def test_broken_serialized_schedule_fails(self, tmp_path, capsys):
        from repro.core.serialize import save_schedule

        path = tmp_path / "broken.json"
        save_schedule(send_then_recv(), path)
        assert main_check(["--schedule", str(path)]) == 1
        assert "deadlock-rendezvous" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main_check(["allgather", "ring", "--p", "4",
                           "-o", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["ok"] is True

    def test_usage_error_without_target(self, capsys):
        assert main_check([]) == 2
        assert "error" in capsys.readouterr().err

    def test_strict_fails_on_warnings(self, tmp_path):
        from repro.core.serialize import save_schedule

        # Correct bcast whose root copies a block a same-step send also
        # reads: hazard-read-write is its only (warning) finding.
        s = handmade("bcast", [
            prog(0, [CopyOp(1, 0), SendOp(1, (0, 1))]),
            prog(1, [RecvOp(0, (0, 1))]),
        ], nblocks=2, root=0)
        path = tmp_path / "warny.json"
        save_schedule(s, path)
        # hazard-read-write is a warning: ok normally, fails --strict.
        assert main_check(["--schedule", str(path)]) == 0
        assert main_check(["--schedule", str(path), "--strict"]) == 1

    def test_all_filtered_sweep(self, capsys):
        rc = main_check(["--all", "allreduce", "ring"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "checked" in out and "0 failing" in out

    def test_all_unknown_filter_is_usage_error(self, capsys):
        assert main_check(["--all", "allreduce", "nonexistent"]) == 2
        assert "no registry entries" in capsys.readouterr().err
