"""Mutation corpus for :mod:`repro.check` (ISSUE 5 acceptance gate).

Each test seeds one realistic schedule bug — the classes of mistake the
paper reports spending the most debugging effort on (§VI-A) — and
asserts the static-analysis suite catches it with an *actionable*
diagnostic: an error finding pinned to the offending rank/step/op.

The corpus mutates real registry schedules where the bug is a plausible
editing slip (dropped op, swapped peer, reordered step, truncated
program) and hand-builds minimal schedules where the bug needs precise
construction (double-count, rendezvous cycle, copy collisions).
"""

import pytest

from repro.check import run_checks
from repro.check.deadlock import check_deadlock
from repro.core.registry import build_schedule
from oracle import (
    CopyOp,
    RankProgram,
    RecvOp,
    SendOp,
    Step,
    from_programs,
    programs_of,
)


def mutated(collective, algorithm, p, k=None, *, edit):
    """A registry schedule rebuilt from edited programs.

    Schedules are immutable, so a mutant is a new :class:`Schedule`:
    ``edit`` gets every rank's steps as a list of lists to break.
    """
    good = build_schedule(collective, algorithm, p, k=k)
    steps = [list(prog.steps) for prog in programs_of(good)]
    edit(steps)
    return from_programs(
        good.collective, good.algorithm, p, good.nblocks,
        [RankProgram(rank=r, steps=s) for r, s in enumerate(steps)],
        root=good.root, k=good.k, meta=good.meta,
    )


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


def assert_caught(report, *codes):
    """The report must fail with >= 1 of ``codes``, located on an op.

    "Actionable" means a human can go fix it: every asserted finding
    names the rank, and at least one names rank, step AND the op text.
    """
    assert not report.ok, f"mutation went undetected:\n{report.describe()}"
    found = [f for f in report.findings if f.code in codes]
    assert found, (
        f"expected one of {codes}, got "
        f"{sorted({f.code for f in report.findings})}"
    )
    assert all(f.rank is not None or f.code.startswith("model")
               for f in found)
    assert any(
        f.rank is not None and f.step is not None and f.op
        for f in found
    ), f"no finding carries a full rank/step/op location: {found}"
    return found[0]


class TestRegistryMutations:
    """Plausible editing slips on real registry schedules."""

    def test_drop_recv(self):
        # Deleting a recv leaves its sender's message orphaned in the
        # channel and shifts every later FIFO match on that channel.
        def edit(steps):
            steps[1][0] = Step(tuple(
                op for op in steps[1][0].ops if not isinstance(op, RecvOp)
            ))

        s = mutated("allreduce", "ring", 4, edit=edit)
        f = assert_caught(
            run_checks(s), "channel-orphan-send", "deadlock-rendezvous"
        )
        assert "rank" in f.message

    def test_drop_send(self):
        def edit(steps):
            steps[1][0] = Step(tuple(
                op for op in steps[1][0].ops if not isinstance(op, SendOp)
            ))

        s = mutated("allreduce", "ring", 4, edit=edit)
        f = assert_caught(
            run_checks(s), "channel-starved-recv", "deadlock-eager"
        )
        assert "never" in f.message

    def test_swap_peers(self):
        # Rank 0 receives from the wrong neighbor: the real sender's
        # message starves, the phantom channel has no sends at all.
        def edit(steps):
            ops = list(steps[0][0].ops)
            for i, op in enumerate(ops):
                if isinstance(op, RecvOp):
                    ops[i] = RecvOp(peer=2, blocks=op.blocks, reduce=op.reduce)
            steps[0][0] = Step(tuple(ops))

        s = mutated("allreduce", "ring", 4, edit=edit)
        assert_caught(
            run_checks(s),
            "channel-starved-recv",
            "channel-orphan-send",
            "deadlock-eager",
        )

    def test_reorder_step(self):
        # Swapping two steps on one rank permutes its send order, which
        # the FIFO matching sees as block-shape mismatches downstream.
        def edit(steps):
            steps[0][0], steps[0][1] = steps[0][1], steps[0][0]

        s = mutated("allreduce", "ring", 4, edit=edit)
        f = assert_caught(run_checks(s), "channel-shape")
        assert "FIFO" in f.message

    def test_truncate_program(self):
        # A rank exits early: its last-step peers hang forever.
        s = mutated("allreduce", "ring", 4, edit=lambda steps: steps[2].pop())
        assert_caught(
            run_checks(s),
            "channel-orphan-send",
            "channel-starved-recv",
            "deadlock-eager",
        )

    def test_extra_round_breaks_model(self):
        # A redundant extra exchange leaves the data correct but makes
        # the schedule structurally heavier than its analytical model.
        def edit(steps):
            steps[0].append(Step((SendOp(1, (0,)),)))
            steps[1].append(Step((RecvOp(0, (0,)),)))

        s = mutated("bcast", "knomial", 8, k=2, edit=edit)
        report = run_checks(s)
        assert not report.ok
        model = [f for f in report.findings if f.code.startswith("model")]
        assert model, sorted({f.code for f in report.findings})
        assert "calibrated band" in model[0].message
        assert "drifted" in model[0].message


class TestHandmadeMutations:
    """Bug classes needing precise construction."""

    def test_overlapping_recv_blocks(self):
        # Two plain recvs landing in the same block in one step: the
        # last writer wins nondeterministically on real hardware.
        s = handmade("allgather", [
            prog(0, [SendOp(1, (0,)), SendOp(2, (0,)),
                     RecvOp(1, (1,)), RecvOp(2, (1,))]),
            prog(1, [SendOp(0, (1,)), SendOp(2, (1,)),
                     RecvOp(0, (0,)), RecvOp(2, (2,))]),
            prog(2, [SendOp(0, (2,)), SendOp(1, (2,)),
                     RecvOp(0, (0,)), RecvOp(1, (1,))]),
        ], nblocks=3)
        f = assert_caught(run_checks(s), "hazard-write-write")
        assert "block 1" in f.message

    def test_double_counted_reduction(self):
        # A duplicated butterfly exchange folds each peer's input in
        # twice — silent corruption under SUM.
        exchange0 = [SendOp(1, (0,)), RecvOp(1, (0,), reduce=True)]
        exchange1 = [SendOp(0, (0,)), RecvOp(0, (0,), reduce=True)]
        s = handmade("allreduce", [
            prog(0, list(exchange0), list(exchange0)),
            prog(1, list(exchange1), list(exchange1)),
        ], nblocks=1)
        f = assert_caught(run_checks(s), "dataflow-double-count")
        assert "double-count" in f.message

    def test_garbage_send(self):
        # Bcast with the arrow reversed: the non-root sends a block it
        # never received.
        s = handmade("bcast", [
            prog(0, [RecvOp(1, (0,))]),
            prog(1, [SendOp(0, (0,))]),
        ], nblocks=1, root=0)
        f = assert_caught(run_checks(s), "dataflow-garbage-send")
        assert "uninitialized" in f.message

    def test_wrong_payload_shape(self):
        # Send carries two blocks, the FIFO-matched recv expects one.
        s = handmade("allgather", [
            prog(0, [SendOp(1, (0, 1)), RecvOp(1, (1,))]),
            prog(1, [SendOp(0, (1,)), RecvOp(0, (0,))]),
        ], nblocks=2)
        f = assert_caught(run_checks(s), "channel-shape")
        assert "shapes differ" in f.message

    def test_rendezvous_cycle(self):
        # Both ranks send in step 0 and recv in step 1: fine with eager
        # buffering, a textbook cycle once sends must rendezvous.
        s = handmade("allgather", [
            prog(0, [SendOp(1, (0,))], [RecvOp(1, (1,))]),
            prog(1, [SendOp(0, (1,))], [RecvOp(0, (0,))]),
        ], nblocks=2)
        f = assert_caught(run_checks(s), "deadlock-rendezvous")
        assert "cyclic wait among ranks [0, 1]" in f.message
        assert "closing the cycle" in f.message

    def test_rendezvous_cycle_threshold_regimes(self):
        # The same cycle, analyzed in the mixed regime: payloads under
        # the eager limit squeak through (warning — it breaks at
        # scale), payloads over it hang (error).
        s = handmade("allgather", [
            prog(0, [SendOp(1, (0,))], [RecvOp(1, (1,))]),
            prog(1, [SendOp(0, (1,))], [RecvOp(0, (0,))]),
        ], nblocks=2)
        small = {f.code: f.severity
                 for f in check_deadlock(s, nbytes=64, eager_threshold=1024)}
        assert small["deadlock-eager-dependent"] == "warning"
        big = {f.code: f.severity
               for f in check_deadlock(s, nbytes=4096, eager_threshold=64)}
        assert big["deadlock-threshold"] == "error"

    def test_copy_copy_collision(self):
        s = handmade("bcast", [
            prog(0, [CopyOp(0, 1), CopyOp(0, 1), SendOp(1, (0, 1))]),
            prog(1, [RecvOp(0, (0, 1))]),
        ], nblocks=2, root=0)
        f = assert_caught(run_checks(s), "hazard-copy-copy")
        assert "concurrent copies" in f.message


def test_corpus_size():
    """The acceptance criterion asks for >= 10 distinct seeded bugs."""
    corpus = [
        m for cls in (TestRegistryMutations, TestHandmadeMutations)
        for m in vars(cls) if m.startswith("test_")
    ]
    assert len(corpus) >= 10, corpus


@pytest.mark.parametrize("collective,algorithm,p,k", [
    ("allreduce", "ring", 8, None),
    ("allreduce", "recursive_multiplying", 9, 3),
    ("bcast", "knomial", 13, 3),
    ("allgather", "bruck", 7, 2),
    ("reduce_scatter", "recursive_halving", 8, None),
])
def test_unmutated_baselines_stay_clean(collective, algorithm, p, k):
    """The corpus' seed schedules pass — so each test isolates its bug."""
    report = run_checks(build_schedule(collective, algorithm, p, k=k))
    assert report.ok, report.describe()
