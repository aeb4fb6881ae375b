"""The benchmark against its own declaration (``BENCHMARK.json``) and
against the program: seeds, cache resets, and a ``--quick`` smoke run of
every workload, traced and untraced."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    names = []
    for wl in SPEC["workloads"]:
        assert set(wl) == {"name", "why"}
        assert len(wl["why"]) <= 200 and "\n" not in wl["why"]
        names.append(wl["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def _layout(wl):
    """The cycle and everything a workload draws from its seed."""
    return (
        [u.name for u in wl.units],
        getattr(wl, "sizes", None),           # tune_cold
        getattr(wl, "per_rank", None),        # scale_sim
        getattr(wl, "data_seed", None),       # execute_data
        getattr(wl, "select_batches", None),  # serve_durable
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_generated_inputs(name, tmp_path):
    a = _layout(WORKLOADS[name](7, True, tmp_path))
    b = _layout(WORKLOADS[name](7, True, tmp_path))
    c = _layout(WORKLOADS[name](8, True, tmp_path))
    assert a == b
    assert a != c
    assert len(a[0]) == len(c[0])  # other inputs, the same amount of work


def test_reset_really_empties_all_four_caches():
    import repro
    from repro.bench.sweep import SweepPoint, simulate_point
    from repro.compile import cache as compile_cache
    from repro.compile.cache import get_or_classify, global_compiled_cache
    from repro.core.cache import global_schedule_cache
    from repro.simnet.machines import reference

    machine = reference(8)
    point = SweepPoint("allreduce", "recursive_multiplying", 1024, k=2)
    harness.reset_caches()
    first = simulate_point(machine, point)
    again = simulate_point(machine, point)
    assert (first.cache_hit, first.sim_hit) == (False, False)
    assert again.sim_hit
    sched = repro.build("allreduce", "recursive_multiplying", p=8, k=2)
    get_or_classify(sched, machine, 1024)
    assert len(global_schedule_cache()) and len(global_compiled_cache())
    assert len(compile_cache._class_entries)

    harness.reset_caches()
    assert len(global_schedule_cache()) == 0
    assert len(global_compiled_cache()) == 0
    assert len(compile_cache._class_entries) == 0
    # The first unit of the next repetition reports a build miss.
    assert global_compiled_cache().get_or_compile(sched)[1] is False
    fresh = simulate_point(machine, point)
    assert (fresh.cache_hit, fresh.sim_hit) == (False, False)


def _quick(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--quick", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    kind = "trace" if trace else "e2e"
    record = json.loads(
        (ROOT / "perfbench" / "out" / f"result-{workload}-{kind}.json")
        .read_text()
    )
    return last, record


def test_quick_runs_emit_every_declared_metric():
    emitted_layers = set()
    for workload in sorted(WORKLOADS):
        last, record = _quick(workload, 0)
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert list(last["metrics"]) == [
            m["name"] for m in SPEC["end_to_end"]
        ]
        for m in SPEC["end_to_end"]:
            got = last["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] > 0
        env = record["environment"]
        assert env["pinned_env"] == harness.PINNED_ENV
        assert env["seed"] == 3 and env["nproc"] and env["numpy"]
        assert record["noisy"] == (
            record["harness.noise_ratio"] > harness.NOISY_RATIO
        )

        last, record = _quick(workload, 1)
        assert last["correct"] is True and last["failed"] == 0
        assert list(last["metrics"]) == [
            m["name"] for m in SPEC["per_layer"]
        ]
        emitted_layers |= set(record["emitted"])
        trace = json.loads(
            (ROOT / "perfbench" / "out" / f"trace-{workload}.json")
            .read_text()
        )
        assert trace and all(s["end"] >= s["start"] for s in trace)
    assert emitted_layers == {m["name"] for m in SPEC["per_layer"]}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, the
    command exits non-zero and prints no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
