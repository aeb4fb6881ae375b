"""A kernel run that waits nowhere skips the event loop.

:func:`repro.simnet.kernel.run` first evaluates the table's
capacity-free timeline (:func:`~repro.simnet.kernel.capacity_free`) and
returns it when its certificate holds: no resource ever holds more
transfers than its units and no receiver ever runs two reductions at
once, touching intervals counted as overlapping.  These tests pin that
such a run is the event loop's result to the last bit.  A simulation
with ``collect_timeline=True`` always takes the loop, so every
``SimResult`` field but the timeline must agree between the two calls:
over the contended corner grid of ``tests/golden/des_corners.json``
(with and without noise) and over the registry grid.  On every row, the
capacity-free makespan is a lower bound on the loop's.  Hand-built
tables cover each branch of the certificate, and the engine counters
show which path a run took.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np
import pytest

from repro.core.registry import _REGISTRY, build_schedule, info
from repro.errors import ReproError
from repro.obs import Obs
from repro.selection.tuner import radix_grid
from repro.simnet import kernel
from repro.simnet.machines import frontier, reference
from repro.simnet.noise import NoiseModel
from repro.simnet.simulate import simulate
from oracle import kernel_csr
from test_golden_costs import (
    CORNER_CASES,
    CORNER_PS,
    CORNER_SIZES,
    _corner_machines,
)

#: What :func:`~repro.simnet.kernel.capacity_free` reads of a kernel call.
_PASS_ARGS = ("codes", "bounds", "first", "limit", "inject", "src", "dst",
              "held", "capacity", "final_hold", "alpha", "gamma_t",
              "held_ids")


def _pass(kw: dict):
    """The capacity-free pass over a kernel call's arguments."""
    return kernel.capacity_free(
        **{k: kw[k] for k in _PASS_ARGS if k in kw}
    )


@pytest.fixture
def kernel_calls(monkeypatch) -> List[dict]:
    """Every ``kernel.run`` call's keyword arguments."""
    calls: List[dict] = []
    real = kernel.run

    def spy(**kw):
        calls.append(kw)
        return real(**kw)

    monkeypatch.setattr(kernel, "run", spy)
    return calls


def _compare(kernel_calls, schedule, machine, nbytes, noise=None) -> bool:
    """Simulate twice — the second run always on the event loop — and
    check every field but the timeline equal, and the capacity-free
    timeline a bound (exact where certified).  Returns ``certified``
    as the pass decides it without the contention hint."""
    kernel_calls.clear()
    fast = simulate(schedule, machine, nbytes, noise=noise)
    (kw,) = kernel_calls
    loop = simulate(schedule, machine, nbytes, noise=noise,
                    collect_timeline=True)
    where = (schedule.describe(), machine.name, nbytes, noise)
    for f in dataclasses.fields(fast):
        if f.name != "timeline":
            assert getattr(fast, f.name) == getattr(loop, f.name), (
                f.name, *where
            )
    makespan, times, certified = _pass(kw)
    assert makespan <= loop.time, where
    assert all(t <= r for t, r in zip(times, loop.rank_times)), where
    if certified:
        assert (makespan, times) == (loop.time, loop.rank_times), where
    return certified


#: Certified runs per corner case, as measured (floors: a change that
#: certifies fewer runs is a lost fast path, not a wrong number).
CORNER_CERTIFIED = {
    "bcast/knomial": 148,
    "reduce/knomial": 128,
    "allreduce/recursive_multiplying": 103,
    "allgather/kring": 182,
    "allreduce/kring": 174,
    "alltoall/pairwise": 60,
    "bcast/pipelined_chain": 198,
}  # 993 of the 1 482 rows


@pytest.mark.parametrize("case", CORNER_CASES, ids=lambda c: f"{c[0]}/{c[1]}")
def test_corner_grid(kernel_calls, case):
    """Every corner machine, sizes 0 / 7 / 65537, with and without
    σ = 0.3 noise: the certified path equals the event loop."""
    coll, alg, root = case
    certified = 0
    for p in CORNER_PS:
        ks = (2, 3, p) if info(coll, alg).takes_k else (None,)
        for k in ks:
            schedule = build_schedule(coll, alg, p, k=k, root=root)
            for machine in _corner_machines(p).values():
                for n in CORNER_SIZES:
                    for noise in (None, NoiseModel(sigma=0.3, seed=7)):
                        certified += _compare(
                            kernel_calls, schedule, machine, n, noise
                        )
    assert certified >= CORNER_CERTIFIED[f"{coll}/{alg}"]


#: Certified runs over the registry grid per rank count, as measured.
REGISTRY_CERTIFIED = {4: 234, 7: 117, 16: 281}


@pytest.mark.parametrize("p", sorted(REGISTRY_CERTIFIED))
def test_registry_grid(kernel_calls, p):
    """Every registered algorithm and radix at three sizes."""
    machine = frontier(p // 4, 4) if p % 4 == 0 else reference(p)
    certified = 0
    for (coll, alg), entry in sorted(_REGISTRY.items()):
        ks = radix_grid(p, min_k=entry.min_k) if entry.takes_k else [None]
        for k in ks:
            try:
                schedule = build_schedule(coll, alg, p, k=k)
            except ReproError:
                continue
            for n in CORNER_SIZES:
                certified += _compare(kernel_calls, schedule, machine, n)
    assert certified >= REGISTRY_CERTIFIED[p]


# -- hand-built tables ------------------------------------------------------


def _table(ops, msgs, *, capacity=(), o=0.0, gamma_t=None):
    """Kernel arguments for ``msgs`` = ``(src, dst, held, hold, alpha)``
    rows and actors ``ops`` (per actor, per step, ``(msg, is_recv)``
    pairs)."""
    return {
        **kernel_csr([[[i << 1 | r for i, r in step] for step in actor]
                      for actor in ops]),
        "limit": [len(actor) for actor in ops],
        "inject": [o] * len(ops),
        "src": [m[0] for m in msgs],
        "dst": [m[1] for m in msgs],
        "held": [m[2] for m in msgs],
        "hold": [m[3] for m in msgs],
        "final_hold": [m[3] for m in msgs],
        "alpha": [m[4] for m in msgs],
        "gamma_t": gamma_t or [-1.0] * len(msgs),
        "capacity": list(capacity),
    }


def _fan(order):
    """Actor 0 sends, actor 1 receives, the messages in ``order``."""
    return [[[(i, 0) for i in order]], [[(i, 1) for i in order]]]


def _run_both(table):
    """``(result, certified count, events)`` without ``collect``, after
    checking it against the event loop's."""
    obs = Obs(enabled=True)
    got = kernel.run(obs=obs, **table)
    loop = kernel.run(collect=True, obs=Obs(), **table)
    assert got[:3] == loop[:3]
    snap = obs.metrics.snapshot()
    assert snap.value("repro_engine_runs_total") == 1
    return (got, snap.value("repro_engine_certified_total"),
            snap.value("repro_engine_events_total"))


class TestCertificate:
    def test_port_over_capacity_runs_the_loop(self):
        """Three 1-second holds on a 1-unit port: they would overlap."""
        table = _table(_fan([0, 1, 2]), [(0, 1, (0,), 1.0, 0.0)] * 3,
                       capacity=[1])
        (makespan, _, _, rows), certified, events = _run_both(table)
        assert makespan == 3.0 and rows is None
        assert (certified, events) == (0, 6)
        assert not _pass(table)[2]

    def test_two_units_two_transfers_certify(self):
        table = _table(_fan([0, 1]), [(0, 1, (0,), 1.0, 0.5)] * 2,
                       capacity=[2])
        (makespan, times, _, _), certified, events = _run_both(table)
        assert (makespan, times) == (1.5, [1.0, 1.5])
        assert (certified, events) == (1, 0)

    def test_touching_intervals_run_the_loop(self):
        """One transfer holds the port over [0, 1], another — posted a
        second late — over [1, 2]: the loop orders the release and the
        acquire at t = 1, so the certificate refuses to."""
        ops = [[[(0, 0)]], [[(0, 1)]], [[(1, 0)]], [[(1, 1)]]]
        msgs = [(0, 1, (0,), 1.0, 0.0), (2, 3, (0,), 1.0, 0.0)]
        table = _table(ops, msgs, capacity=[1])
        table["inject"] = [0.0, 0.0, 1.0, 1.0]
        (makespan, _, _, _), certified, _ = _run_both(table)
        assert (makespan, certified) == (2.0, 0)
        # Half a second later the intervals are apart and it certifies.
        table["inject"] = [0.0, 0.0, 1.5, 1.5]
        (makespan, _, _, _), certified, _ = _run_both(table)
        assert (makespan, certified) == (2.5, 1)

    def test_overlapping_reductions_run_the_loop(self):
        """Two reducing receives on one receiver's compute unit."""
        table = _table(_fan([0, 1]), [(0, 1, (), 0.0, 1.0)] * 2,
                       gamma_t=[2.0, 2.0])
        (makespan, _, _, _), certified, _ = _run_both(table)
        assert (makespan, certified) == (5.0, 0)
        bound, _, ok = _pass(table)
        assert (bound, ok) == (3.0, False)

    def test_zero_messages_certify(self):
        (makespan, times, _, _), certified, events = _run_both(
            _table([[], [[], []], []], [])
        )
        assert (makespan, times) == (0.0, [0.0, 0.0, 0.0])
        assert (certified, events) == (1, 0)

    def test_unfinished_actor_raises_on_the_loop(self):
        """Actor 0's second send is never received: no certificate, and
        the loop names the deadlock exactly as without the pass."""
        table = _table([[[(0, 0)], [(1, 0)]], [[(0, 1)]]],
                       [(0, 1, (), 1.0, 1.0), (0, 1, (), 1.0, 1.0)])
        assert _pass(table) == (0.0, None, False)
        with pytest.raises(ReproError, match=r"2 process.*blocked at t=2"):
            kernel.run(obs=Obs(), **table)

    def test_flattened_ids_are_the_held_tuples(self):
        table = _table(_fan([0, 1, 2]),
                       [(0, 1, (0, 2), 1.0, 0.0), (0, 1, (), 1.0, 0.0),
                        (0, 1, (1,), 1.0, 0.0)], capacity=[1, 1, 1])
        ids = kernel.flatten_held(table["held"])
        assert ids.tolist() == [[0, 2, 1], [0, 0, 2]]
        assert kernel.run(held_ids=ids, obs=Obs(), **table) == kernel.run(
            obs=Obs(), **table
        )


@pytest.mark.parametrize("coll, alg, k", [
    ("allreduce", "recursive_doubling", None),
    ("allgather", "ring", None),
    ("allreduce", "recursive_multiplying", 2),
])
def test_collapsed_engine_certifies_too(coll, alg, k):
    """The class-collapsed table takes the same shortcut: its certified
    run equals the materialized event loop."""
    schedule = build_schedule(coll, alg, 64, k=k)
    machine = reference(64)
    obs = Obs(enabled=True)
    fast = simulate(schedule, machine, 1 << 16, engine="collapsed", obs=obs)
    loop = simulate(schedule, machine, 1 << 16, collect_timeline=True)
    assert fast.engine == "collapsed" and fast.nclasses < 64
    assert fast.time == loop.time
    assert list(fast.rank_times) == loop.rank_times
    assert obs.metrics.snapshot().value("repro_engine_certified_total") == 1


class TestContentionHint:
    def test_a_failed_certificate_marks_the_table(self, monkeypatch):
        """The first run that fails records the capacity vector; the next
        run of that table under it skips the pass, under another it
        does not — and the results never change."""
        table = _table(_fan([0, 1, 2]), [(0, 1, (0,), 1.0, 0.0)] * 3,
                       capacity=[1])
        passes = []
        real = kernel.capacity_free

        def spy(**kw):
            passes.append(kw["capacity"])
            return real(**kw)

        monkeypatch.setattr(kernel, "capacity_free", spy)
        contended = set()
        first = kernel.run(contended=contended, obs=Obs(), **table)
        assert contended == {(1,)} and len(passes) == 1
        again = kernel.run(contended=contended, obs=Obs(), **table)
        assert again == first and len(passes) == 1
        table["capacity"] = [3]
        wide = kernel.run(contended=contended, obs=Obs(), **table)
        assert len(passes) == 2 and contended == {(1,)}
        assert wide[0] == 1.0

    def test_a_class_plan_keeps_its_route_memo(self, monkeypatch):
        """A contended partition's class plan is built once and memoises
        its held ids and contention hint: the second collapsed run skips
        the capacity-free pass and changes nothing."""
        from repro.compile.cache import clear_class_cache

        schedule = build_schedule("allreduce", "recursive_multiplying", 64,
                                  k=4)
        machine = reference(64)
        assert machine.nic_ports == 1
        passes = []
        real = kernel.capacity_free

        def spy(**kw):
            passes.append(kw["capacity"])
            return real(**kw)

        monkeypatch.setattr(kernel, "capacity_free", spy)
        clear_class_cache()
        try:
            first = simulate(schedule, machine, 1 << 16, engine="collapsed")
            again = simulate(schedule, machine, 1 << 16, engine="collapsed")
        finally:
            clear_class_cache()
        assert first.engine == "collapsed"
        assert len(passes) == 1

        def fields(res):
            return {k: v.tolist() if isinstance(v, np.ndarray) else v
                    for k, v in vars(res).items()}

        assert fields(again) == fields(first)
        loop = simulate(schedule, machine, 1 << 16, collect_timeline=True)
        assert (first.time, first.rank_times.tolist()) == (
            loop.time, loop.rank_times
        )

    def test_simulate_keeps_the_hint_on_the_plan(self, kernel_calls):
        """A materialized k-nomial root on a one-port machine never
        certifies: the hint lives in the plan's route memo."""
        schedule = build_schedule("bcast", "knomial", 16, k=4)
        machine = reference(16)
        for n in (4096, 8192):
            kernel_calls.clear()
            res = simulate(schedule, machine, n)
            (kw,) = kernel_calls
            assert kw["contended"] == {tuple(kw["capacity"])}
            loop = simulate(schedule, machine, n, collect_timeline=True)
            assert (res.time, res.rank_times) == (loop.time, loop.rank_times)
        assert isinstance(kw["held_ids"], np.ndarray)
