"""Unit tests for the rank-equivalence partition (:mod:`repro.compile.classes`).

The partition is the soundness core of the collapsed engine: every rank
in a class must be timing-indistinguishable from its representative up
to peer relabeling, and the class graph must stay a bijection (class-c
sends land 1:1 on a single receiving class).  These tests pin the
partition's shape on known-symmetric and known-degenerate schedules, the
cache behavior of :func:`repro.compile.get_or_classify`, the machine
preconditions, and the whole-table implementation against the per-rank
one it replaced (kept below as the reference) over the registry grid.
"""

import re

import numpy as np
import pytest

from repro.compile import compile_schedule, get_or_classify
from repro.compile.classes import classify, machine_asymmetry
from repro.core.registry import build_schedule
from repro.errors import ClassAnalysisError
from repro.simnet.machines import frontier, reference
from oracle import kernel_csr


def _classify(coll, alg, p, *, k=None, nbytes=4096):
    schedule = build_schedule(coll, alg, p, k=k)
    return classify(compile_schedule(schedule), reference(p), nbytes)


class TestPartitionShape:
    def test_ring_allgather_is_one_class(self):
        c = _classify("allgather", "ring", 8)
        assert c.nclasses == 1
        assert c.labels.tolist() == [0] * 8
        assert c.sizes.tolist() == [8]
        assert c.reps == (0,)

    def test_symmetric_butterflies_are_one_class(self):
        for coll, alg, k in [
            ("allreduce", "recursive_multiplying", 2),
            ("allgather", "recursive_multiplying", 3),
            ("allreduce", "kring", 2),
            ("allgather", "kring", 1),
            ("allreduce", "recursive_doubling", None),
        ]:
            c = _classify(coll, alg, 8, k=k)
            assert c.nclasses == 1, (coll, alg, k)

    def test_rooted_trees_stay_degenerate(self):
        # Every rank of a rooted k-nomial tree has a distinct timing
        # role (depth, fan-out slot), so the only sound partition is the
        # trivial one.  A coarser merge here would fake symmetry and
        # corrupt simulated costs.
        for coll in ("bcast", "reduce"):
            c = _classify(coll, "knomial", 8, k=2)
            assert c.nclasses == 8
            assert sorted(c.reps) == list(range(8))

    def test_labels_partition_every_rank(self):
        c = _classify("allreduce", "knomial", 16, k=4)
        assert len(c.labels) == 16
        sizes = np.bincount(c.labels, minlength=c.nclasses)
        assert int(sizes.sum()) == 16
        assert c.sizes.tolist() == sizes.tolist()

    def test_rep_is_lowest_member(self):
        c = _classify("allgather", "ring", 12)
        for label, rep in enumerate(c.reps):
            members = np.where(c.labels == label)[0]
            assert rep == int(members[0])


class TestFingerprint:
    """A partition's fingerprint is its class plan's digest."""

    def test_deterministic(self):
        a = _classify("allreduce", "ring", 8)
        b = _classify("allreduce", "ring", 8)
        assert a.plan.digest() == b.plan.digest()

    def test_distinguishes_schedules(self):
        a = _classify("allgather", "ring", 8)
        b = _classify("allgather", "ring", 12)
        assert a.plan.digest() != b.plan.digest()


class TestClassCache:
    def test_same_residue_shares_entry(self):
        # The partition depends on nbytes only through the block residue
        # (nbytes % nblocks): two sizes with equal residue must be
        # served by one cached object.
        schedule = build_schedule("allgather", "ring", 8)
        m = reference(8)
        a = get_or_classify(schedule, m, 1024)
        b = get_or_classify(schedule, m, 2048)
        assert a is b

    def test_distinct_residue_distinct_entry(self):
        schedule = build_schedule("allgather", "ring", 8)
        m = reference(8)
        a = get_or_classify(schedule, m, 1024)   # residue 0
        b = get_or_classify(schedule, m, 1027)   # residue 3
        assert a is not b
        assert a.residue == 0 and b.residue == 3


class TestMachinePreconditions:
    def test_multirank_nodes_are_asymmetric(self):
        m = frontier(4, 2)
        assert machine_asymmetry(m) is not None
        with pytest.raises(ClassAnalysisError):
            classify(compile_schedule(build_schedule("allgather", "ring", 8)),
                     m, 4096)

    def test_reference_is_symmetric(self):
        assert machine_asymmetry(reference(8)) is None

    def test_rank_count_mismatch_rejected(self):
        with pytest.raises(ClassAnalysisError):
            classify(compile_schedule(build_schedule("allgather", "ring", 8)),
                     reference(16), 4096)


# ----------------------------------------------------------------------
# Differential: classify's whole-table passes against the partition as
# it was first written — one rank, one class and one op at a time.
# ----------------------------------------------------------------------


def reference_classify(compiled, machine, nbytes, forged=None):
    """The per-rank classify the whole-table passes must reproduce:
    same partition, same class plan columns (:func:`plan_columns`), same
    first error.  ``forged`` replaces the computed partition, to reach
    the bijection check."""
    from repro.compile.classes import LINK_GLOBAL, LINK_INTER, link_profile
    from repro.compile.program import OP_COPY, OP_REDUCE_RECV, OP_SEND

    p, programs = compiled.nranks, compiled.programs
    extra = nbytes % compiled.nblocks
    _, npg = link_profile(machine)
    nops = [prog.nops for prog in programs]
    start = np.repeat(np.cumsum([0] + nops)[:-1], nops)
    fifo = compiled.messages()
    flat = np.full(sum(nops), -1, dtype=np.int32)
    flat[fifo.send_op] = fifo.recv_op - start[fifo.recv_op]
    flat[fifo.recv_op] = fifo.send_op - start[fifo.send_op]
    cops = np.split(flat, np.cumsum(nops)[:-1])

    def shape(prog):
        bounds = prog.seg_bounds
        nblk = (bounds[1:] - bounds[:-1]).astype(np.int32)
        if prog.nops == 0:
            return nblk, np.zeros(0, dtype=np.int32)
        large = (prog.seg_blocks < extra).astype(np.int32)
        return nblk, np.add.reduceat(
            large, bounds[:-1].astype(np.intp)
        ).astype(np.int32)

    def link_of(prog):
        link = np.full(prog.nops, LINK_INTER, dtype=np.int8)
        if npg:
            link[(prog.peers // npg) != (prog.rank // npg)] = LINK_GLOBAL
        link[prog.kinds == OP_COPY] = -1
        return link

    def dense(keys):
        table = {}
        return np.array([table.setdefault(k, len(table)) for k in keys],
                        dtype=np.int32)

    shapes = [shape(prog) for prog in programs]
    links = [link_of(prog) for prog in programs]
    labels = dense(
        (prog.kinds.tobytes(), prog.steps_raw.tobytes(),
         shapes[r][0].tobytes(), shapes[r][1].tobytes(),
         links[r].tobytes(), cops[r].tobytes())
        for r, prog in enumerate(programs)
    )
    for _ in range(p):
        keys = []
        for r, prog in enumerate(programs):
            copy = prog.peers < 0
            peer_labels = labels[np.where(copy, 0, prog.peers)]
            keys.append((int(labels[r]),
                         np.where(copy, -1, peer_labels).tobytes()))
        new_labels = dense(keys)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    if forged is not None:
        labels = np.array(forged, dtype=np.int32)

    counts, label_of = np.bincount(labels).tolist(), labels.tolist()
    reps, targets = [], []
    for c in range(len(counts)):
        members = np.flatnonzero(labels == c)
        rep = int(members[0])
        prog = programs[rep]
        member_peers = [programs[m].peers.tolist() for m in members]
        send_target = [None] * prog.nops
        for j in np.flatnonzero(prog.kinds == OP_SEND).tolist():
            targets_j = [peers[j] for peers in member_peers]
            tc = label_of[targets_j[0]]
            if any(label_of[t] != tc for t in targets_j):
                raise ClassAnalysisError(
                    f"class {c} op {j}: peers span multiple classes"
                )
            if len(set(targets_j)) != len(members) or (
                counts[tc] != len(members)
            ):
                raise ClassAnalysisError(
                    f"class {c} op {j}: sends to class {tc} are not 1:1 "
                    f"({len(members)} sender(s), {counts[tc]} receiver(s))"
                )
            send_target[j] = (tc, int(cops[rep][j]))
        reps.append(rep)
        targets.append(send_target)

    # The class plan, one message at a time: representative sends in
    # class order, then program order, each delivered to its
    # counterpart receive in the receiver class's representative.
    want = {"labels": labels.tolist(), "sizes": counts, "src": [],
            "dst": [], "seq": [], "reduce": [], "blocks": [], "link": []}
    out_row, in_row = {}, {}
    for c, rep in enumerate(reps):
        prog = programs[rep]
        for j, target in enumerate(targets[c]):
            if target is None:
                continue
            tc, tj = target
            out_row[c, j] = in_row[tc, tj] = len(want["src"])
            bounds = prog.seg_bounds
            want["src"].append(c)
            want["dst"].append(tc)
            want["seq"].append(int(prog.tags[j]))
            want["reduce"].append(
                bool(programs[reps[tc]].kinds[tj] == OP_REDUCE_RECV)
            )
            want["blocks"].append(tuple(
                prog.seg_blocks[bounds[j]:bounds[j + 1]].tolist()
            ))
            want["link"].append(int(links[rep][j]))
    ops = []
    for c, rep in enumerate(reps):
        kinds, bounds = programs[rep].kinds, programs[rep].steps_raw
        ops.append([
            [
                out_row[c, i] << 1 if kinds[i] == OP_SEND
                else in_row[c, i] << 1 | 1
                for i in range(lo, hi) if kinds[i] != OP_COPY
            ]
            for lo, hi in zip(bounds.tolist(), bounds.tolist()[1:])
        ])
    want.update(kernel_csr(ops))
    return want


def plan_columns(classes):
    """A partition's labels, sizes and class plan columns, as plain
    Python values in :func:`reference_classify`'s layout."""
    plan = classes.plan
    ptr = plan.blk_ptr.tolist()
    return {
        "labels": classes.labels.tolist(),
        "sizes": classes.sizes.tolist(),
        "src": plan.src,
        "dst": plan.dst,
        "seq": plan.seq,
        "reduce": plan.reduce.tolist(),
        "blocks": [tuple(plan.blk_ids[a:b].tolist())
                   for a, b in zip(ptr, ptr[1:])],
        "link": plan.link.tolist(),
        "codes": plan.codes.tolist(),
        "bounds": plan.bounds.tolist(),
        "first": plan.first.tolist(),
    }


def _grid_schedules(entry):
    """``entry`` over p ∈ {1, 2, 3, 5, 8, 12, 16, 32} × radices × roots
    0 and 1."""
    from repro.core.registry import max_radix

    for p in (1, 2, 3, 5, 8, 12, 16, 32):
        ks = [None]
        if entry.takes_k:
            cap = max(entry.min_k, max_radix(entry.collective, entry.name, p))
            ks = range(entry.min_k, cap + 1)
        roots = [r for r in (0, 1) if r < p] if entry.takes_root else [0]
        for k in ks:
            for root in roots:
                yield entry.build(p, k=k, root=root)


def _dragonfly(p):
    """One rank per node in dragonfly groups of four (two, one when p
    is not a multiple) without global channel pools: collapsible, with
    group-crossing link classes."""
    from dataclasses import replace

    from repro.simnet.machine import DragonflySpec

    group = next(g for g in (4, 2, 1) if p % g == 0)
    return replace(reference(p), name=f"dragonfly-{p}-groups-of-{group}",
                   dragonfly=DragonflySpec(nodes_per_group=group,
                                           alpha_global=1e-6))


def _registry_entries():
    from repro.core.registry import _REGISTRY

    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def _fan_in():
    """Ranks 1 and 2 each send rank 0 one block."""
    from oracle import RankProgram, RecvOp, SendOp, from_programs

    progs = [RankProgram(rank=r) for r in range(3)]
    progs[0].add(RecvOp(1, (0,)), RecvOp(2, (1,)))
    progs[1].add(SendOp(0, (0,)))
    progs[2].add(SendOp(0, (1,)))
    return from_programs("gather", "fan-in", 3, 2, progs)


class TestWholeTableDifferential:
    @pytest.mark.parametrize(
        "entry", _registry_entries(),
        ids=lambda e: f"{e.collective}/{e.name}",
    )
    def test_registry_grid_matches_the_per_rank_reference(self, entry):
        for schedule in _grid_schedules(entry):
            compiled = compile_schedule(schedule)
            p, nb = schedule.nranks, schedule.nblocks
            # Residue nb // 2 splits the blocks into large and small
            # (residue 0 when there is one block); 1 makes one large.
            for machine, nbytes in (
                (reference(p), 64 * nb + nb // 2),
                (_dragonfly(p), 64 * nb + 1),
            ):
                assert plan_columns(
                    classify(compiled, machine, nbytes)
                ) == reference_classify(compiled, machine, nbytes)

    def test_artifact_from_the_wire_derives_its_columns_once(self):
        import pickle

        schedule = build_schedule("allreduce", "knomial", 12, k=3)
        lowered = compile_schedule(schedule)
        clone = pickle.loads(pickle.dumps(lowered))
        assert lowered.columns is schedule.columns()
        for name in ("kinds", "peers", "seg_bounds", "seg_blocks",
                     "steps_raw", "op_ptr", "step_ptr"):
            column = getattr(clone.columns, name)
            assert not column.flags.writeable, name
            assert np.array_equal(column,
                                  getattr(schedule.columns(), name)), name
        for machine in (reference(12), _dragonfly(12)):
            got = classify(clone, machine, 4099)
            want = classify(lowered, machine, 4099)
            assert plan_columns(got) == plan_columns(want)
            assert got.plan.digest() == want.plan.digest()

    # A computed fixpoint always satisfies the bijection check, so a
    # forged partition stands in for a refinement bug: the texts are
    # pinned here.
    @pytest.mark.parametrize("schedule, forged, text", [
        (build_schedule("allgather", "ring", 4), [0, 0, 1, 1],
         "class 0 op 0: peers span multiple classes"),
        (_fan_in(), [0, 1, 1],
         "class 1 op 0: sends to class 0 are not 1:1 "
         "(2 sender(s), 1 receiver(s))"),
    ])
    def test_bijection_violation_texts(self, monkeypatch, schedule, forged,
                                       text):
        import repro.compile.classes as classes

        compiled = compile_schedule(schedule)
        machine = reference(schedule.nranks)
        exact = f"^{re.escape(text)}$"
        with pytest.raises(ClassAnalysisError, match=exact):
            reference_classify(compiled, machine, 64, forged=forged)
        monkeypatch.setattr(
            classes, "_dense_labels",
            lambda keys: np.array(forged, dtype=np.int32),
        )
        with pytest.raises(ClassAnalysisError, match=exact):
            classify(compiled, machine, 64)


class TestPlanBuilder:
    """``build_sim_plan`` refuses deliveries that do not cover every
    receive exactly once — the check behind every class plan."""

    # Rank 0 of a 4-rank ring allgather: send, recv × 3 steps, so flat
    # ops 1, 3 and 5 are its receives and op 0 a send.
    @pytest.mark.parametrize("damage, text", [
        (lambda at: np.where(at == 3, 1, at),
         "actor 0 op 1: 2 sends deliver to this receive, not one"),
        (lambda at: np.where(at == 1, 3, at),
         "actor 0 op 1: 0 sends deliver to this receive, not one"),
        (lambda at: np.where(at == 1, 0, at),
         "actor 0 op 0 is not a receive but a send targets it"),
    ])
    def test_refusal_texts(self, damage, text):
        from repro.core.schedule import build_sim_plan

        schedule = build_schedule("allgather", "ring", 4)
        compiled = compile_schedule(schedule)
        fifo = compiled.messages()
        plan = build_sim_plan(compiled.columns, fifo.recv_op,
                              fifo.seq[fifo.send_op])
        assert plan.digest() == schedule.sim_plan().digest()
        with pytest.raises(ClassAnalysisError, match=f"^{re.escape(text)}$"):
            build_sim_plan(compiled.columns, damage(fifo.recv_op),
                           fifo.seq[fifo.send_op])


class TestScaleSimDoesNothingTwice:
    """Clock-free guard on perfbench's ``scale_sim`` built-then-classified
    units (build, classify, then two sizes of one residue through
    ``engine="auto"``): counts, not times."""

    def test_columns_handed_over_and_no_table_digest(self, monkeypatch):
        import repro
        import repro.compile.classes as classes
        import repro.compile.program as program
        from repro.compile.cache import (
            clear_class_cache, get_or_compile, global_compiled_cache,
        )
        from repro.core.cache import global_schedule_cache

        hashed, built = [], []
        table_bytes = program.CompiledProgram.table_bytes
        build_sim_plan = classes.build_sim_plan

        def counting_table_bytes(self):
            hashed.append(self)
            return table_bytes(self)

        def counting_build_sim_plan(*args):
            built.append(args)
            return build_sim_plan(*args)

        monkeypatch.setattr(program.CompiledProgram, "table_bytes",
                            counting_table_bytes)
        monkeypatch.setattr(classes, "build_sim_plan",
                            counting_build_sim_plan)
        clears = (global_schedule_cache().clear, clear_class_cache,
                  global_compiled_cache().clear)
        for clear in clears:
            clear()
        machine = reference(256)
        try:
            compiled, engines, plans = [], [], []
            for coll, alg, k in (("allreduce", "recursive_multiplying", 2),
                                 ("bcast", "knomial", 4)):
                schedule = repro.build(coll, alg, p=256, k=k)
                get_or_classify(schedule, machine, 256 * 32)
                for words in (4, 512):
                    engines.append(repro.simulate(
                        schedule, machine, nbytes=256 * 8 * words
                    ).engine)
                compiled.append((get_or_compile(schedule), schedule))
                plans.append(len(built))
        finally:
            for clear in clears:
                clear()
        assert engines == ["collapsed"] * 2 + ["materialized"] * 2
        # The lowered artifact is its schedule's own columns …
        assert all(c.columns is s.columns() for c, s in compiled)
        # … the partitions are keyed without hashing its tables …
        assert hashed == []
        # … the butterfly's class plan is built once, and the degenerate
        # tree (256 classes, refused on the count) builds none.
        assert plans == [1, 1]

    def test_refinement_stops_at_singletons(self, monkeypatch):
        # A degenerate k-nomial tree reaches p classes and stops there:
        # no confirming round after the one that split the last class.
        # The registry differential above pins the labels themselves.
        import repro.compile.classes as classes

        counts = []
        dense_labels = classes._dense_labels

        def counting_dense_labels(keys):
            labels = dense_labels(keys)
            counts.append(len(np.unique(labels)))
            return labels

        monkeypatch.setattr(classes, "_dense_labels", counting_dense_labels)
        c = _classify("bcast", "knomial", 256, k=4)
        assert c.nclasses == 256
        assert len(counts) > 1 and counts[-1] == 256
        assert counts.count(256) == 1, counts

    def test_partition_of_a_fresh_artifact_serves_its_blob_round_trip(self):
        from repro.compile.cache import _class_entries, clear_class_cache
        from repro.compile.classes import partition_key
        from repro.compile.program import CompiledSchedule
        from repro.core.serialize import dumps_blob, loads_blob

        lowered = compile_schedule(
            build_schedule("allreduce", "recursive_multiplying", 12, k=3)
        )
        machine = reference(12)
        clear_class_cache()
        try:
            fresh, hit = _class_entries.get_or_make(
                partition_key(lowered, machine, 4099),
                lambda: classify(lowered, machine, 4099),
            )
            assert not hit
            clone = loads_blob(dumps_blob(lowered), CompiledSchedule)
            cached, hit = _class_entries.get_or_make(
                partition_key(clone, machine, 4099),
                lambda: classify(clone, machine, 4099),
            )
        finally:
            clear_class_cache()
        assert hit and cached is fresh
        again = classify(clone, machine, 4099)
        assert again.labels.tolist() == fresh.labels.tolist()
        assert again.plan.digest() == fresh.plan.digest()
