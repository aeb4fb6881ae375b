"""Unit tests for the schedule IR (:mod:`repro.core.schedule`)."""

import hashlib
import pickle
import re
from itertools import accumulate

import pytest

from repro.core.registry import build_schedule
from repro.core.serialize import dumps_blob, loads_blob
from repro.core.schedule import Schedule
from repro.errors import ScheduleError
from oracle import (
    CopyOp,
    RankProgram,
    RecvOp,
    SendOp,
    Step,
    from_programs,
    programs_of,
)


def two_rank_schedule():
    """rank 0 sends block 0 to rank 1."""
    p0 = RankProgram(rank=0)
    p0.add(SendOp(peer=1, blocks=(0,)))
    p1 = RankProgram(rank=1)
    p1.add(RecvOp(peer=0, blocks=(0,)))
    return from_programs(
        collective="bcast",
        algorithm="test",
        nranks=2,
        nblocks=1,
        programs=[p0, p1],
        root=0,
    )


class TestOps:
    def test_send_requires_blocks(self):
        with pytest.raises(ScheduleError):
            SendOp(peer=1, blocks=())

    def test_send_rejects_duplicate_blocks(self):
        with pytest.raises(ScheduleError):
            SendOp(peer=1, blocks=(0, 0))

    def test_recv_rejects_duplicate_blocks(self):
        with pytest.raises(ScheduleError):
            RecvOp(peer=1, blocks=(2, 2))

    def test_step_requires_ops(self):
        with pytest.raises(ScheduleError):
            Step(())

    def test_step_classifies_ops(self):
        step = Step(
            (
                SendOp(peer=1, blocks=(0,)),
                RecvOp(peer=2, blocks=(1,), reduce=True),
                CopyOp(src=0, dst=1),
            )
        )
        assert len(step.sends) == 1
        assert len(step.recvs) == 1
        assert len(step.copies) == 1
        assert step.recvs[0].reduce


class TestRankProgram:
    def test_add_step_skips_empty(self):
        prog = RankProgram(rank=0)
        prog.add_step([])
        assert prog.steps == []

    def test_iter_ops_yields_step_indices(self):
        prog = RankProgram(rank=0)
        prog.add(SendOp(peer=1, blocks=(0,)))
        prog.add(RecvOp(peer=1, blocks=(0,)))
        indices = [i for i, _ in prog.iter_ops()]
        assert indices == [0, 1]


class TestSchedule:
    def test_valid_schedule_builds(self):
        sched = two_rank_schedule()
        assert sched.describe() == "bcast test p=2 root=0"

    def test_program_count_must_match(self):
        with pytest.raises(ScheduleError):
            from_programs(
                collective="bcast",
                algorithm="t",
                nranks=3,
                nblocks=1,
                programs=[RankProgram(rank=0)],
            )

    def test_program_rank_mismatch(self):
        with pytest.raises(ScheduleError):
            from_programs(
                collective="bcast",
                algorithm="t",
                nranks=2,
                nblocks=1,
                programs=[RankProgram(rank=0), RankProgram(rank=0)],
            )

    def test_peer_out_of_range(self):
        p0 = RankProgram(rank=0)
        p0.add(SendOp(peer=5, blocks=(0,)))
        with pytest.raises(
            ScheduleError,
            match=re.escape("rank 0: peer 5 out of range (p=2)"),
        ):
            from_programs(
                collective="bcast",
                algorithm="t",
                nranks=2,
                nblocks=1,
                programs=[p0, RankProgram(rank=1)],
            )

    def test_self_communication_rejected(self):
        p0 = RankProgram(rank=0)
        p0.add(SendOp(peer=0, blocks=(0,)))
        with pytest.raises(
            ScheduleError,
            match=re.escape("rank 0: self-communication is not allowed"),
        ):
            from_programs(
                collective="bcast",
                algorithm="t",
                nranks=2,
                nblocks=1,
                programs=[p0, RankProgram(rank=1)],
            )

    def test_block_out_of_range(self):
        p0 = RankProgram(rank=0)
        p0.add(SendOp(peer=1, blocks=(3,)))
        with pytest.raises(
            ScheduleError,
            match=re.escape("rank 0: blocks [3] out of range (nblocks=2)"),
        ):
            from_programs(
                collective="bcast",
                algorithm="t",
                nranks=2,
                nblocks=2,
                programs=[p0, RankProgram(rank=1)],
            )

    def test_copy_block_out_of_range(self):
        p0 = RankProgram(rank=0)
        p0.add(CopyOp(src=0, dst=9))
        with pytest.raises(
            ScheduleError,
            match=re.escape("rank 0: copy block 9 out of range"),
        ):
            from_programs(
                collective="bcast",
                algorithm="t",
                nranks=1,
                nblocks=2,
                programs=[p0],
            )

    def test_stats(self):
        sched = two_rank_schedule()
        stats = sched.stats()
        assert stats.messages == 1
        assert stats.blocks_sent == 1
        assert stats.max_steps == 1
        assert stats.reduce_receives == 0

    def test_stats_counts_reduce_receives(self):
        p0 = RankProgram(rank=0)
        p0.add(RecvOp(peer=1, blocks=(0,), reduce=True))
        p1 = RankProgram(rank=1)
        p1.add(SendOp(peer=0, blocks=(0,)))
        sched = from_programs(
            collective="reduce",
            algorithm="t",
            nranks=2,
            nblocks=1,
            programs=[p0, p1],
            root=0,
        )
        assert sched.stats().reduce_receives == 1

    def test_block_map_partition(self):
        sched = two_rank_schedule()
        bm = sched.block_map(100)
        assert bm.nblocks == 1
        assert bm.total == 100


    def test_first_violation_in_walk_order_is_the_one_named(self):
        """The comparisons are per column; the message is still the
        first bad op's, rank-major in program order."""
        p0 = RankProgram(rank=0)
        p0.add(RecvOp(peer=1, blocks=(0,)))
        p0.add(SendOp(peer=1, blocks=(7,)))  # second in walk order
        p1 = RankProgram(rank=1)
        p1.add(SendOp(peer=9, blocks=(0,)))  # third
        with pytest.raises(ScheduleError, match=re.escape("blocks [7]")):
            from_programs("bcast", "t", 2, 1, [p0, p1])

    def test_an_id_no_column_can_hold_is_still_a_schedule_error(self):
        p0 = RankProgram(rank=0)
        p0.add(SendOp(peer=1 << 40, blocks=(0,)))
        with pytest.raises(ScheduleError, match="out of range"):
            from_programs("bcast", "t", 2, 1, [p0, RankProgram(rank=1)])


def reference_fingerprint(schedule):
    """The digest as first defined: an op-by-op loop over the IR.

    ``Schedule.fingerprint()`` assembles the same text from the sealed
    columns; this is the reference it must agree with byte for byte.
    """
    parts = [
        f"{schedule.collective}|{schedule.algorithm}|{schedule.nranks}|"
        f"{schedule.nblocks}|{schedule.root}|{schedule.k}"
    ]
    for prog in programs_of(schedule):
        parts.append("|P")
        for step in prog.steps:
            parts.append("|S")
            for op in step.ops:
                if isinstance(op, SendOp):
                    parts.append(
                        f"|s{op.peer}:{','.join(map(str, op.blocks))}"
                    )
                elif isinstance(op, RecvOp):
                    parts.append(
                        f"|r{op.peer}:{','.join(map(str, op.blocks))}"
                        f":{int(op.reduce)}"
                    )
                else:
                    parts.append(f"|c{op.src}:{op.dst}")
    return hashlib.sha256("".join(parts).encode()).hexdigest()


class TestSealed:
    """A constructed schedule is immutable; nothing derived goes stale."""

    def test_programs_and_steps_are_tuples(self):
        # The oracle's view of a schedule is as sealed as the schedule.
        sched = two_rank_schedule()
        assert type(programs_of(sched)) is tuple
        assert all(type(p.steps) is tuple for p in programs_of(sched))

    def test_field_assignment_raises(self):
        sched = two_rank_schedule()
        with pytest.raises(ScheduleError, match="immutable"):
            sched.k = 3
        with pytest.raises(ScheduleError, match="immutable"):
            sched.programs = []
        with pytest.raises(ScheduleError, match="immutable"):
            del sched.root
        assert (sched.k, sched.root) == (None, 0)

    def test_step_edits_raise(self):
        sched = two_rank_schedule()
        prog = programs_of(sched)[1]
        step = Step((RecvOp(peer=0, blocks=(0,), reduce=True),))
        with pytest.raises(TypeError):
            prog.steps[0] = step
        with pytest.raises(AttributeError):
            prog.steps.append(step)
        with pytest.raises(ScheduleError, match="sealed"):
            prog.add_step(step.ops)
        with pytest.raises(ScheduleError, match="sealed"):
            prog.add(*step.ops)
        with pytest.raises(ScheduleError, match="sealed"):
            prog.steps = [step]
        assert len(prog.steps) == 1 and not prog.steps[0].ops[0].reduce

    def test_a_failed_construction_seals_nothing(self):
        p0 = RankProgram(rank=0)
        p0.add(SendOp(peer=5, blocks=(0,)))
        with pytest.raises(ScheduleError):
            from_programs("bcast", "t", 2, 1, [p0, RankProgram(rank=1)])
        p0.add(SendOp(peer=1, blocks=(0,)))  # still open
        assert len(p0.steps) == 2

    def test_relabel_shares_columns_under_its_own_fingerprint(self):
        sched = build_schedule("allgather", "kring", 6, k=6)
        twin = sched.relabel(k=None)
        assert twin.columns() is sched.columns()
        assert (twin.k, sched.k) == (None, 6)
        assert twin.describe() == "allgather ring p=6"
        assert twin.fingerprint() != sched.fingerprint()
        assert twin.fingerprint() == reference_fingerprint(twin)
        assert twin.meta == sched.meta and twin.meta is not sched.meta
        with pytest.raises(ScheduleError, match="immutable"):
            twin.k = 6
        with pytest.raises(ScheduleError, match="labels only"):
            sched.relabel(nranks=7)

    @pytest.mark.parametrize("root", [9, 4, -1])
    def test_relabel_refuses_a_root_that_is_no_rank(self, root):
        sched = build_schedule("bcast", "binomial", 4)
        with pytest.raises(ScheduleError, match=f"root {root} is not a rank"):
            sched.relabel(root=root)
        assert sched.relabel(root=3).root == 3

    @pytest.mark.parametrize("root", [2, -1])
    def test_from_columns_refuses_a_root_that_is_no_rank(self, root):
        sched = two_rank_schedule()
        with pytest.raises(ScheduleError, match=f"root {root} is not a rank"):
            Schedule.from_columns("bcast", "test", 2, 1, sched.columns(),
                                  root=root)

    def test_construction_keeps_none_of_the_builders_objects(self):
        p0, p1 = RankProgram(rank=0), RankProgram(rank=1)
        p0.add(SendOp(peer=1, blocks=(0,)))
        p1.add(RecvOp(peer=0, blocks=(0,)))
        sched = from_programs("bcast", "t", 2, 1, [p0, p1], root=0)
        before = sched.columns(), sched.fingerprint()
        assert not {"programs", "_programs"} & set(vars(sched))
        assert not any(isinstance(value, (RankProgram, Step))
                       for value in vars(sched).values())
        # The builder's programs stay open, and editing them changes
        # nothing the schedule holds.
        p0.add(SendOp(peer=1, blocks=(0,)))
        p1.steps.clear()
        assert (sched.columns(), sched.fingerprint()) == before
        assert sched.columns().kinds.tolist() == [0, 1]
        assert programs_of(sched)[0] is not p0
        assert [len(prog.steps) for prog in programs_of(sched)] == [1, 1]

    def test_the_oracles_objects_walk_back_to_the_schedule(self):
        sched = build_schedule("allgather", "bruck", 8, k=3)
        assert from_programs(
            sched.collective, sched.algorithm, 8, sched.nblocks,
            programs_of(sched), root=sched.root, k=sched.k, meta=sched.meta,
        ) == sched

    def test_fingerprint_is_computed_once(self):
        sched = build_schedule("allreduce", "recursive_multiplying", 12, k=3)
        first = sched.fingerprint()
        assert sched.fingerprint() is first
        rebuilt = build_schedule("allreduce", "recursive_multiplying", 12, k=3)
        assert rebuilt is not sched and rebuilt.fingerprint() == first

    @pytest.mark.parametrize("collective, algorithm, p, k, root", [
        ("allreduce", "kring", 7, 3, 0),  # uneven groups
        ("allgather", "bruck", 8, 3, 0),  # local copies
        ("bcast", "knomial", 9, 4, 5),
        ("reduce", "reduce_scatter_gather", 6, None, 2),
        ("alltoall", "bruck", 5, 2, 0),
        ("allreduce", "ring", 1, None, 0),  # no ops at all
    ])
    def test_fingerprint_matches_the_reference_loop(
        self, collective, algorithm, p, k, root
    ):
        sched = build_schedule(collective, algorithm, p, k=k, root=root)
        assert sched.fingerprint() == reference_fingerprint(sched)

    def test_fingerprint_of_ranks_without_ops(self):
        # "|P" per rank, busy or not: leading, interior, trailing.
        p1 = RankProgram(rank=1)
        p1.add(SendOp(peer=3, blocks=(0,)), CopyOp(src=0, dst=1))
        p3 = RankProgram(rank=3)
        p3.add(RecvOp(peer=1, blocks=(0,), reduce=True))
        sched = from_programs("reduce", "t", 5, 2, [
            RankProgram(rank=0), p1, RankProgram(rank=2), p3,
            RankProgram(rank=4),
        ], root=3)
        assert sched.fingerprint() == reference_fingerprint(sched)


#: ``dumps_blob(build_schedule(...))`` in the column layout (store
#: format 5; sha256 of the blob text): stores and the wire keep these
#: exact bytes until the next format bump.
PARENT_BLOBS = {
    ("allreduce", "kring", 16, 4, 0):
        "ba127ae8d0aecc800e1c75ba23596beaac61bd53583c68b7214483dd49618d35",
    ("bcast", "recursive_multiplying", 12, 3, 5):
        "b2d5118c8394256398d30923b79086c5012bb55699f96d70795b9398e8650daf",
    ("allgather", "bruck", 8, 3, 0):
        "614ca9d0f40cd58622ef70acfe65b0a28febb814e322d2531875487bf65194b9",
}

#: ``bcast/binomial`` at p = 2 as store format 4 wrote it: the
#: op-object layout (``Schedule.programs`` pickled as ``RankProgram`` /
#: ``Step`` / ``SendOp`` / ``RecvOp``), which no longer loads.
PROGRAMS_LAYOUT_BLOB = (
    "gAWVUAEAAAAAAACME3JlcHJvLmNvcmUuc2NoZWR1bGWUjAhTY2hlZHVsZZSTlCmBlH2UKI"
    "wKY29sbGVjdGl2ZZSMBWJjYXN0lIwJYWxnb3JpdGhtlIwIYmlub21pYWyUjAZucmFua3OU"
    "SwKMB25ibG9ja3OUSwGMCHByb2dyYW1zlF2UKGgAjAtSYW5rUHJvZ3JhbZSTlCmBlH2UKI"
    "wEcmFua5RLAIwFc3RlcHOUXZRoAIwEU3RlcJSTlCmBlH2UjANvcHOUaACMBlNlbmRPcJST"
    "lCmBlH2UKIwEcGVlcpRLAYwGYmxvY2tzlEsAhZR1YoWUc2JhdWJoDimBlH2UKGgRSwFoEl"
    "2UaBUpgZR9lGgYaACMBlJlY3ZPcJSTlCmBlH2UKGgdSwBoHmgfjAZyZWR1Y2WUiXVihZRz"
    "YmF1YmWMBHJvb3SUSwCMAWuUSwKMBG1ldGGUfZR1Yi4="
)


class TestPickle:
    def test_round_trip_is_sealed_and_carries_no_memo(self):
        sched = build_schedule("allreduce", "kring", 16, k=4)
        fp = sched.fingerprint()
        sched.messages()
        blob = pickle.dumps(sched)
        for name in (b"RankProgram", b"SendOp", b"RecvOp", b"CopyOp", b"Step"):
            assert name not in blob
        clone = pickle.loads(blob)
        for memo in ("_fingerprint", "_messages"):
            assert memo not in vars(clone)
        assert clone == sched
        assert all(not arr.flags.writeable for arr in clone.columns()[:-1])
        assert clone.columns().signatures == sched.columns().signatures
        with pytest.raises(ScheduleError, match="immutable"):
            clone.k = 2
        assert clone.fingerprint() == fp

    @pytest.mark.parametrize("key", sorted(PARENT_BLOBS))
    def test_blobs_are_byte_identical_to_the_parents(self, key):
        collective, algorithm, p, k, root = key
        sched = build_schedule(collective, algorithm, p, k=k, root=root)
        before = hashlib.sha256(dumps_blob(sched).encode()).hexdigest()
        assert before == PARENT_BLOBS[key]
        sched.fingerprint()  # memos never reach a blob
        after = hashlib.sha256(dumps_blob(sched).encode()).hexdigest()
        assert after == PARENT_BLOBS[key]

    def test_a_programs_layout_blob_is_refused(self):
        with pytest.raises(ScheduleError, match="predates the column layout"):
            loads_blob(PROGRAMS_LAYOUT_BLOB, Schedule)


def reference_matching(schedule):
    """MPI's non-overtaking rule walked op object by op object: on each
    directed channel the n-th send matches the n-th receive.

    Returns ``(seq, pairs, unmatched_sends, unmatched_recvs,
    mismatched)`` in :class:`~repro.core.schedule.Messages`' terms —
    global op indices, pairs in the sends' program order, unmatched ops
    channel by channel.
    """
    seq, blocks = [], []
    sends, recvs = {}, {}
    for prog in programs_of(schedule):
        for _, op in prog.iter_ops():
            i = len(seq)
            if isinstance(op, CopyOp):
                seq.append(-1)
                blocks.append(None)
                continue
            if isinstance(op, SendOp):
                chan = sends.setdefault((prog.rank, op.peer), [])
            else:
                chan = recvs.setdefault((op.peer, prog.rank), [])
            seq.append(len(chan))
            blocks.append(op.blocks)
            chan.append(i)
    pairs, lone_sends, lone_recvs = [], [], []
    for chan in sorted(set(sends) | set(recvs)):
        ss, rr = sends.get(chan, []), recvs.get(chan, [])
        pairs.extend(zip(ss, rr))
        lone_sends.extend(ss[len(rr):])
        lone_recvs.extend(rr[len(ss):])
    pairs.sort()
    mismatched = [m for m, (s, r) in enumerate(pairs) if blocks[s] != blocks[r]]
    return seq, pairs, lone_sends, lone_recvs, mismatched


def assert_matches_reference(schedule):
    fifo = schedule.messages()
    seq, pairs, lone_sends, lone_recvs, mismatched = reference_matching(
        schedule
    )
    assert fifo.seq.tolist() == seq
    assert list(zip(fifo.send_op.tolist(), fifo.recv_op.tolist())) == pairs
    assert fifo.unmatched_sends.tolist() == lone_sends
    assert fifo.unmatched_recvs.tolist() == lone_recvs
    assert fifo.mismatched.tolist() == mismatched


def handmade(nranks, nblocks, *programs):
    """A schedule from ``(rank, [step ops], ...)`` tuples; missing ranks
    get empty programs."""
    progs = [RankProgram(rank=r) for r in range(nranks)]
    for rank, *steps in programs:
        for ops in steps:
            progs[rank].add(*ops)
    return from_programs("allgather", "handmade", nranks, nblocks, progs)


#: Hand-built schedules no builder emits: FIFO block mismatches,
#: unmatched traffic, copies, idle ranks, one rank.
MALFORMED = [
    ("orphan send", handmade(2, 1, (0, [SendOp(1, (0,))]))),
    ("starved receive", handmade(2, 1, (1, [RecvOp(0, (0,))]))),
    ("different blocks", handmade(
        3, 3,
        (0, [SendOp(1, (0,)), SendOp(2, (0, 1))], [RecvOp(2, (2,))]),
        (1, [RecvOp(0, (1,))], [SendOp(2, (1,))]),
        (2, [SendOp(0, (1,))], [RecvOp(1, (0,)), RecvOp(0, (0, 2))]),
    )),
    ("copies", handmade(
        2, 2,
        (0, [CopyOp(0, 1), SendOp(1, (1,))], [CopyOp(1, 0)]),
        (1, [RecvOp(0, (1,), reduce=True)]),
    )),
    ("idle ranks", handmade(
        4, 1, (1, [SendOp(3, (0,))]), (3, [RecvOp(1, (0,))]),
    )),
    ("one rank", handmade(1, 2, (0, [CopyOp(0, 1)]))),
    ("one rank, no ops", handmade(1, 1)),
    ("orphans out of channel order", handmade(
        3, 2, (0, [SendOp(2, (0,))], [SendOp(1, (1,))]),
    )),
    ("orphan and starved", handmade(
        3, 2, (0, [SendOp(2, (0,))], [RecvOp(1, (1,))]),
    )),
]


def registry_grid(entry):
    """``entry`` over p ∈ {1, 2, 3, 5, 8, 12, 16} × radices × roots."""
    from repro.core.registry import max_radix

    for p in (1, 2, 3, 5, 8, 12, 16):
        ks = [None]
        if entry.takes_k:
            cap = max(entry.min_k, max_radix(entry.collective, entry.name, p))
            ks = range(entry.min_k, cap + 1)
        roots = sorted({0, p // 2, p - 1}) if entry.takes_root else [0]
        for k in ks:
            for root in roots:
                yield entry.build(p, k=k, root=root)


def _registry_entries():
    from repro.core.registry import _REGISTRY

    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


class TestMessages:
    """``Schedule.messages()`` is the one FIFO matching; pinned here
    against the rule written out over the IR objects."""

    @pytest.mark.parametrize(
        "entry", _registry_entries(),
        ids=lambda e: f"{e.collective}/{e.name}",
    )
    def test_registry_grid_matches_the_reference_walk(self, entry):
        for schedule in registry_grid(entry):
            assert_matches_reference(schedule)
            fifo = schedule.messages()
            assert not len(fifo.unmatched_sends) + len(fifo.unmatched_recvs)
            assert not len(fifo.mismatched)

    @pytest.mark.parametrize("name, schedule", MALFORMED)
    def test_malformed_schedules_are_reported_not_refused(
        self, name, schedule
    ):
        assert_matches_reference(schedule)

    def test_readers_name_the_first_starved_receive(self):
        # (1, 0) starves on its second receive, (2, 0) on its only one,
        # which comes first in program order: every reader names (2, 0).
        from repro.core.analysis import dependency_rounds
        from repro.errors import MachineError
        from repro.faults.sim import match_messages

        schedule = handmade(
            3, 2,
            (0, [RecvOp(1, (0,))], [RecvOp(2, (1,))], [RecvOp(1, (1,))]),
            (1, [SendOp(0, (0,))]),
        )
        with pytest.raises(MachineError, match=r"channel \(2, 0\)$"):
            match_messages(schedule)
        with pytest.raises(MachineError, match=r"channel \(2, 0\)$"):
            schedule.sim_plan()
        with pytest.raises(
            ScheduleError, match=r"\(2, 0\) has 1 recvs but only 0 sends"
        ):
            dependency_rounds(schedule)

    def test_memoised_and_shared_by_relabel_copies(self):
        sched = build_schedule("allgather", "kring", 6, k=6)
        fifo = sched.messages()
        assert sched.messages() is fifo
        assert sched.relabel(k=None).messages() is fifo
        assert all(not arr.flags.writeable for arr in fifo)

    def test_lowering_hands_the_matching_to_the_artifact(self):
        from repro.compile import compile_schedule

        sched = build_schedule("allreduce", "kring", 12, k=3)
        compiled = compile_schedule(sched)
        assert compiled.messages() is sched.messages()
        # Each rank's tags are a read-only view of the matching's seq.
        seq = sched.messages().seq
        for prog, lo, hi in zip(compiled.programs,
                                sched.columns().op_ptr[:-1],
                                sched.columns().op_ptr[1:]):
            assert prog.tags.base is seq
            assert prog.tags.tolist() == seq[lo:hi].tolist()
            assert not prog.tags.flags.writeable
        # An artifact from disk or the wire derives the same table.
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._source is None
        for got, want in zip(clone.messages(), sched.messages()):
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("key", sorted(PARENT_BLOBS))
    def test_the_matching_never_reaches_a_blob(self, key):
        collective, algorithm, p, k, root = key
        sched = build_schedule(collective, algorithm, p, k=k, root=root)
        sched.messages()
        blob = dumps_blob(sched)
        assert hashlib.sha256(blob.encode()).hexdigest() == PARENT_BLOBS[key]
        assert "_messages" not in vars(loads_blob(blob, Schedule))


def reference_lowering(schedule):
    """The compiled tables derived from the op *objects* — the
    oracle's :func:`~oracle.programs_of`, generated back from the
    columns — with channel counters of their own: the walk the
    compile ladder ran on every lowering before an artifact became its
    schedule's columns.

    Returns ``(tables, signatures)``: per rank a dict of the
    :class:`~repro.compile.program.CompiledProgram` columns as lists,
    and the sorted send payload signatures.
    """
    from repro.compile.program import OP_COPY, OP_RECV, OP_REDUCE_RECV, OP_SEND

    send_seq = {}
    recv_seq = {}
    signatures = set()
    tables = []
    for src_prog in programs_of(schedule):
        rank = src_prog.rank
        flat_ops = [op for step in src_prog.steps for op in step.ops]
        exp_raw = [0, *accumulate(len(step.ops) for step in src_prog.steps)]
        want_kinds, want_peers, want_tags = [], [], []
        want_blocks, want_bounds = [], [0]
        for op in flat_ops:
            if isinstance(op, SendOp):
                chan = (rank, op.peer)
                seq = send_seq.get(chan, 0)
                send_seq[chan] = seq + 1
                want_kinds.append(OP_SEND)
                want_peers.append(op.peer)
                want_tags.append(seq)
                want_blocks.extend(op.blocks)
                signatures.add(op.blocks)
            elif isinstance(op, RecvOp):
                chan = (op.peer, rank)
                seq = recv_seq.get(chan, 0)
                recv_seq[chan] = seq + 1
                want_kinds.append(OP_REDUCE_RECV if op.reduce else OP_RECV)
                want_peers.append(op.peer)
                want_tags.append(seq)
                want_blocks.extend(op.blocks)
            else:
                assert isinstance(op, CopyOp)
                want_kinds.append(OP_COPY)
                want_peers.append(-1)
                want_tags.append(-1)
                want_blocks.extend((op.src, op.dst))
            want_bounds.append(len(want_blocks))
        tables.append({
            "kinds": want_kinds, "peers": want_peers, "tags": want_tags,
            "seg_bounds": want_bounds, "seg_blocks": want_blocks,
            "steps_raw": exp_raw,
        })
    return tables, tuple(sorted(signatures))


def assert_lowers_like_the_reference(schedule):
    from repro.compile import compile_schedule

    compiled = compile_schedule(schedule)
    tables, signatures = reference_lowering(schedule)
    assert [prog.rank for prog in compiled.programs] == list(
        range(schedule.nranks)
    )
    for prog, want in zip(compiled.programs, tables):
        for name, column in want.items():
            assert getattr(prog, name).tolist() == column, (
                schedule.describe(), prog.rank, name
            )
    assert tuple(sorted(compiled.columns.signatures)) == signatures


class TestReferenceLowering:
    """Every rank view of ``compile_schedule(s)`` against
    :func:`reference_lowering`: the tables' independent derivation, so a
    wrong column or ``match_fifo`` cannot pass unseen."""

    @pytest.mark.parametrize(
        "entry", _registry_entries(),
        ids=lambda e: f"{e.collective}/{e.name}",
    )
    def test_registry_grid(self, entry):
        for schedule in registry_grid(entry):
            assert_lowers_like_the_reference(schedule)

    @pytest.mark.parametrize("name, schedule", MALFORMED)
    def test_malformed_schedules(self, name, schedule):
        assert_lowers_like_the_reference(schedule)
