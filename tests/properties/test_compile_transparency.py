"""Compiled tables == the reference interpreter, stated as properties.

The compiled program tables (:mod:`repro.compile`) are the only
representation any production path walks; the op-by-op interpreter —
``run_schedule`` over a ``NumpyModel`` (``tests/oracle.py``) —
survives as the oracle.
This suite is the differential harness that keeps the two honest:

* **Registry grid** — every (collective, algorithm) pair, at several
  rank counts and radices including the degenerate ``k = max_radix``
  corner, executes on the lockstep backend to the oracle's exact
  buffers, and the compiled simulator plan equals
  :func:`repro.faults.sim.match_messages` field for field — so the
  static fault analysis, ``recovery.detect`` and the DES kernel see the
  same messages — while its op codes decode to the ``(is_send, peer)``
  stream read off the IR with copies dropped: everything the simulator
  takes from the tables.
* **Randomized configs** — a hypothesis property draws (p, k, root,
  count, seed) freely and re-asserts lockstep bit-identity.
* **Threaded backend** — fault-free and under a lossy
  :class:`~repro.faults.FaultPlan` (drops, duplicates, delays), the
  rank walker produces the oracle's exact buffers.
* **Copy steps** — on hand-built copy-step schedules (the registry
  emits no :class:`~repro.core.schedule.CopyOp`, so these are
  constructed), the lockstep and threaded backends equal the oracle: the
  only ``OP_COPY`` coverage through lowering, bind and both runners.
* **Degenerate radices** — at ``k = max_radix(p)`` (≈ p−1) the
  simulator stays inside the calibrated ``KNOWN_DIVERGENCES`` model
  bands: zero model-consistency findings.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.check import check_model, has_model
from repro.core.registry import (
    COLLECTIVES,
    algorithms_for,
    build_schedule,
    info,
    max_radix,
)
from repro.faults import FaultPlan
from repro.faults.sim import match_messages
from repro.runtime.buffers import initial_buffers
from repro.runtime.executor import execute as execute_lockstep
from repro.runtime.ops import SUM
from repro.runtime.threaded import execute_threaded

from oracle import (
    CopyOp,
    NumpyModel,
    RankProgram,
    SendOp,
    Step,
    from_programs,
    programs_of,
    run_schedule,
)

GRID = [
    (coll, alg) for coll in COLLECTIVES for alg in algorithms_for(coll)
]


def _radices(coll: str, alg: str, p: int):
    """Radices worth hitting: min, a middle value, and the degenerate
    ``max_radix`` corner (k ≈ p−1 for most tree/ring families)."""
    entry = info(coll, alg)
    if not entry.takes_k:
        return [None]
    mr = max_radix(coll, alg, p)
    return sorted({k for k in (entry.min_k, 3, mr) if entry.min_k <= k <= mr})


def _interpret(schedule, buffers):
    """The oracle: op-by-op IR interpretation over ``buffers`` in place."""
    run_schedule(
        schedule,
        NumpyModel(schedule.block_map(len(buffers[0])), buffers, SUM),
    )
    return buffers


def _run_both(coll, alg, *, p, count, k=None, root=0, seed=0, **kwargs):
    """One config through the production path and through the oracle.

    Returns ``(run, reference_buffers)``: the facade's
    :class:`~repro.runtime.executor.CollectiveRun` and the buffers the
    interpreter leaves when started from the same seeded inputs.
    """
    run = api.execute(
        coll, alg, p=p, count=count, k=k, root=root, seed=seed, **kwargs,
    )
    reference = _interpret(
        run.schedule, initial_buffers(run.schedule, run.inputs, count)
    )
    return run, reference


def _ir_feed(schedule):
    """The simulator's op stream read straight off the IR."""
    return [
        [
            tuple(
                (isinstance(op, SendOp), op.peer)
                for op in step.ops
                if not isinstance(op, CopyOp)
            )
            for step in prog.steps
        ]
        for prog in programs_of(schedule)
    ]


def _assert_plan_matches_ir(schedule, label: str) -> None:
    """``sim_plan()`` against ``match_messages`` and the IR op stream."""
    plan = schedule.sim_plan()
    metas = match_messages(schedule)
    codes, bounds, first = (
        plan.codes.tolist(), plan.bounds.tolist(), plan.first.tolist()
    )
    nested = [
        [codes[bounds[g]:bounds[g + 1]] for g in range(lo, hi)]
        for lo, hi in zip(first, first[1:])
    ]
    # Where each message sits in its endpoints' programs, read off the
    # op codes: {msg: step} for the send side and the receive side.
    step_of = ({}, {})
    for steps in nested:
        for s, codes in enumerate(steps):
            for code in codes:
                assert step_of[code & 1].setdefault(code >> 1, s) == s
    got = [
        (
            i, plan.src[i], plan.dst[i], plan.seq[i],
            step_of[0][i], step_of[1][i],
            tuple(plan.blk_ids[plan.blk_ptr[i]:plan.blk_ptr[i + 1]].tolist()),
            bool(plan.reduce[i]),
        )
        for i in range(len(plan.src))
    ]
    want = [
        (m.index, m.src, m.dst, m.seq, m.send_step, m.recv_step,
         m.blocks, m.reduce)
        for m in metas
    ]
    assert got == want, f"{label}: simulator plan != match_messages"
    decoded = [
        [
            tuple(
                (False, plan.src[c >> 1]) if c & 1 else (True, plan.dst[c >> 1])
                for c in codes
            )
            for codes in steps
        ]
        for steps in nested
    ]
    assert decoded == _ir_feed(schedule), (
        f"{label}: simulator op codes != IR op stream"
    )


def _assert_buffers_equal(a, b, label: str) -> None:
    assert len(a) == len(b)
    for rank, (x, y) in enumerate(zip(a, b)):
        assert np.array_equal(x, y), (
            f"{label}: rank {rank} buffers diverged between the compiled "
            f"tables and the reference interpreter"
        )


class TestRegistryGrid:
    """Every registered pair: lockstep buffers and the simulator plan."""

    @pytest.mark.parametrize("coll,alg", GRID)
    def test_lockstep_and_sim_bit_identical(self, coll, alg):
        for p in (4, 7, 8):
            for k in _radices(coll, alg, p):
                if coll == "barrier":
                    # Barrier moves no payload, so there are no buffers
                    # to execute over — the plan comparison below still
                    # covers it.
                    schedule = build_schedule(coll, alg, p, k=k)
                else:
                    run, reference = _run_both(coll, alg, p=p, count=5, k=k)
                    _assert_buffers_equal(
                        run.buffers, reference, f"{coll}/{alg} p={p} k={k}",
                    )
                    schedule = run.schedule
                _assert_plan_matches_ir(
                    schedule, f"{coll}/{alg} p={p} k={k}"
                )


class TestRandomizedConfigs:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_lockstep_bit_identical(self, data):
        coll = data.draw(
            st.sampled_from([c for c in COLLECTIVES if c != "barrier"]),
            label="collective",
        )
        alg = data.draw(
            st.sampled_from(algorithms_for(coll)), label="algorithm"
        )
        p = data.draw(st.integers(2, 9), label="p")
        entry = info(coll, alg)
        k = None
        if entry.takes_k:
            mr = max_radix(coll, alg, p)
            assume(mr >= entry.min_k)
            k = data.draw(st.integers(entry.min_k, mr), label="k")
        root = (
            data.draw(st.integers(0, p - 1), label="root")
            if entry.takes_root else 0
        )
        count = data.draw(st.integers(1, 32), label="count")
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        run, reference = _run_both(
            coll, alg, p=p, count=count, k=k, root=root, seed=seed
        )
        _assert_buffers_equal(
            run.buffers, reference,
            f"{coll}/{alg} p={p} k={k} root={root} count={count}",
        )


#: One threaded config per traffic shape (reduction ring, concatenation
#: ring, rooted tree fan-out, personalized exchange, halving).
THREADED_CASES = [
    ("allreduce", "ring", None),
    ("allgather", "ring", None),
    ("bcast", "knomial", 3),
    ("alltoall", "bruck", None),
    ("reduce_scatter", "recursive_halving", None),
]


class TestThreadedBackend:
    @pytest.mark.parametrize("coll,alg,k", THREADED_CASES)
    def test_fault_free_bit_identical(self, coll, alg, k):
        run, reference = _run_both(
            coll, alg, p=8, count=16, k=k, backend="threaded"
        )
        _assert_buffers_equal(
            run.buffers, reference, f"threaded {coll}/{alg}"
        )

    def test_lossy_plan_bit_identical(self):
        plan = FaultPlan(drop_rate=0.15, dup_rate=0.1, delay_rate=0.1,
                         seed=7)
        run, reference = _run_both(
            "allreduce", "ring", p=6, count=8, backend="threaded",
            faults=plan,
        )
        _assert_buffers_equal(
            run.buffers, reference, "threaded lossy allreduce/ring"
        )


# ---------------------------------------------------------------------------
# Hand-built copy-step schedules.  The registry emits no CopyOps
# (test_registry_emits_no_copy_ops below), so the only way to carry
# OP_COPY through lowering, bind and both runners is to construct
# schedules by hand.
# ---------------------------------------------------------------------------


@st.composite
def copy_schedules(draw):
    """A valid schedule whose steps hold only local CopyOps."""
    p = draw(st.integers(1, 3))
    nblocks = draw(st.integers(2, 5))
    nsteps = draw(st.integers(1, 4))
    programs = []
    for rank in range(p):
        steps = []
        for _ in range(nsteps):
            nops = draw(st.integers(1, 3))
            ops = []
            for _ in range(nops):
                src = draw(st.integers(0, nblocks - 1))
                dst = draw(
                    st.integers(0, nblocks - 1).filter(lambda d: d != src)
                )
                ops.append(CopyOp(src, dst))
            steps.append(Step(ops=tuple(ops)))
        programs.append(RankProgram(rank, steps=steps))
    return from_programs("bcast", "handbuilt", p, nblocks, programs, root=0)


class TestCopyStepSchedules:
    def test_registry_emits_no_copy_ops(self):
        """No registered builder constructs a CopyOp — why the compiled
        tables carry the schedule's own steps and no copy-step merging,
        and why the strategy above builds its schedules by hand."""
        for coll, alg in GRID:
            schedule = build_schedule(coll, alg, 8)
            assert not any(
                isinstance(op, CopyOp)
                for prog in programs_of(schedule)
                for _, op in prog.iter_ops()
            ), f"{coll}/{alg} emits a CopyOp"

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(schedule=copy_schedules(), data=st.data())
    def test_backends_equal_interpreter(self, schedule, data):
        count = data.draw(st.integers(1, 8), label="count")
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        rng = np.random.default_rng(seed)
        total = schedule.nblocks * count
        base = [
            rng.integers(0, 1 << 20, size=total)
            for _ in range(schedule.nranks)
        ]

        def copies():
            return [b.copy() for b in base]

        reference = _interpret(schedule, copies())
        _assert_buffers_equal(
            execute_lockstep(schedule, copies()), reference, "lockstep"
        )
        _assert_buffers_equal(
            execute_threaded(schedule, copies()), reference, "threaded"
        )


class TestDegenerateRadices:
    def test_max_radix_stays_in_divergence_bands(self):
        """k = max_radix (≈ p−1): the calibrated KNOWN_DIVERGENCES bands
        keep holding under the compiled feed — zero model-consistency
        findings."""
        for coll, alg in GRID:
            entry = info(coll, alg)
            if not entry.takes_k or not has_model(coll, alg):
                continue
            for p in (8, 9):
                mr = max_radix(coll, alg, p)
                if mr < entry.min_k:
                    continue
                schedule = build_schedule(coll, alg, p, k=mr)
                findings = check_model(schedule, 65536)
                assert not findings, (
                    f"{coll}/{alg} p={p} k={mr} left the calibrated "
                    f"model bands under the compiled feed: "
                    f"{[(f.code, f.severity) for f in findings]}"
                )
