"""Tests for schedule serialization (:mod:`repro.core.serialize`).

The JSON import reads each op dict straight into columns.  It is pinned
here against the op-object walk it replaced (the oracle's classes):
every registry entry's document must give the same schedule both ways,
and every malformed document must be refused with a ``ScheduleError``.
"""

import json

import pytest

from repro.core.registry import (
    _REGISTRY,
    COLLECTIVES,
    algorithms_for,
    build_schedule,
    info,
)
from repro.core.serialize import (
    load_schedule,
    save_schedule,
    schedule_from_json,
    schedule_to_json,
)
from repro.core.validate import verify
from repro.errors import ScheduleError
from oracle import CopyOp, RankProgram, RecvOp, SendOp, from_programs


def roundtrip(sched):
    return schedule_from_json(schedule_to_json(sched))


def reference_from_json(text):
    """The JSON import as it was before it read into columns: each op
    dict made into an op object, each rank program walked into a
    schedule (well-formed documents only)."""
    payload = json.loads(text)

    def op(raw):
        if raw["op"] == "send":
            return SendOp(peer=raw["peer"], blocks=tuple(raw["blocks"]))
        if raw["op"] == "recv":
            return RecvOp(peer=raw["peer"], blocks=tuple(raw["blocks"]),
                          reduce=bool(raw.get("reduce", False)))
        return CopyOp(src=raw["src"], dst=raw["dst"])

    programs = []
    for rank, raw_prog in enumerate(payload["programs"]):
        prog = RankProgram(rank=rank)
        for raw_step in raw_prog:
            prog.add_step([op(raw) for raw in raw_step])
        programs.append(prog)
    return from_programs(
        payload["collective"], payload["algorithm"], payload["nranks"],
        payload["nblocks"], programs, root=payload.get("root"),
        k=payload.get("k"), meta=payload.get("meta", {}),
    )


def registry_grid():
    """Every registry entry at p ∈ {2, 5, 8, 9}, default k, roots 0/1."""
    for key in sorted(_REGISTRY):
        entry = _REGISTRY[key]
        k = entry.default_k if entry.takes_k else None
        for p in (2, 5, 8, 9):
            for root in ((0, 1) if entry.takes_root else (0,)):
                yield entry.build(p, k=k, root=root)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "coll,alg,k",
        [
            ("bcast", "knomial", 3),
            ("allreduce", "recursive_multiplying", 4),
            ("allgather", "kring", 4),
            ("allreduce", "reduce_scatter_allgather", None),
            ("alltoall", "bruck", 3),
            ("barrier", "k_dissemination", 3),
            ("bcast", "pipelined_chain", 4),
        ],
    )
    def test_structure_preserved(self, coll, alg, k):
        original = build_schedule(coll, alg, 9, k=k)
        restored = roundtrip(original)
        assert restored == original
        assert restored.fingerprint() == original.fingerprint()

    def test_restored_schedule_still_verifies(self):
        restored = roundtrip(
            build_schedule("allreduce", "kring", 12, k=4)
        )
        verify(restored)

    def test_every_registered_algorithm_roundtrips(self):
        for coll in COLLECTIVES:
            for alg in algorithms_for(coll):
                entry = info(coll, alg)
                k = entry.default_k if entry.takes_k else None
                sched = build_schedule(coll, alg, 6, k=k)
                assert roundtrip(sched) == sched, (coll, alg)

    def test_the_registry_grid_reads_back_like_the_op_object_walk(self):
        for sched in registry_grid():
            text = schedule_to_json(sched)
            restored = schedule_from_json(text)
            assert restored == sched, sched.describe()
            assert restored == reference_from_json(text), sched.describe()
            assert schedule_to_json(restored) == text

    def test_a_copy_reads_back_like_the_op_object_walk(self):
        text = json.dumps(copy_document())
        assert schedule_from_json(text) == reference_from_json(text)

    def test_serialization_is_deterministic(self):
        a = schedule_to_json(build_schedule("bcast", "binomial", 8))
        b = schedule_to_json(build_schedule("bcast", "binomial", 8))
        assert a == b

    def test_meta_tuples_become_lists(self):
        sched = build_schedule("allreduce", "recursive_multiplying", 9, k=3)
        payload = json.loads(schedule_to_json(sched))
        assert payload["meta"]["radices"] == [3, 3]


class TestFileIO:
    def test_save_load(self, tmp_path):
        sched = build_schedule("reduce", "knomial", 7, k=3, root=2)
        path = save_schedule(sched, tmp_path / "sched.json")
        restored = load_schedule(path)
        assert restored.describe() == sched.describe()


class TestRejection:
    def test_malformed_json(self):
        with pytest.raises(ScheduleError, match="malformed"):
            schedule_from_json("{oops")

    def test_missing_programs(self):
        with pytest.raises(ScheduleError, match="programs"):
            schedule_from_json('{"format": 1}')

    def test_wrong_format_version(self):
        text = schedule_to_json(build_schedule("bcast", "binomial", 2))
        payload = json.loads(text)
        payload["format"] = 99
        with pytest.raises(ScheduleError, match="format"):
            schedule_from_json(json.dumps(payload))

    def test_unknown_op_kind(self):
        text = schedule_to_json(build_schedule("bcast", "binomial", 2))
        payload = json.loads(text)
        payload["programs"][0][0][0]["op"] = "teleport"
        with pytest.raises(ScheduleError, match="unknown op"):
            schedule_from_json(json.dumps(payload))

    def test_structurally_invalid_rejected_by_constructor(self):
        """Tampering with peers must fail Schedule's own validation."""
        text = schedule_to_json(build_schedule("bcast", "binomial", 2))
        payload = json.loads(text)
        payload["programs"][0][0][0]["peer"] = 7
        with pytest.raises(ScheduleError):
            schedule_from_json(json.dumps(payload))


def base_document():
    """``bcast/binomial`` at p = 2: rank 0 sends block 0 to rank 1."""
    return json.loads(schedule_to_json(build_schedule("bcast", "binomial", 2)))


def copy_document():
    """Rank 0 copies block 0 onto block 1 and sends block 1 to rank 1."""
    return {
        "format": 1, "collective": "bcast", "algorithm": "t", "nranks": 2,
        "nblocks": 2, "root": 0, "k": None, "meta": {},
        "programs": [
            [[{"op": "copy", "src": 0, "dst": 1},
              {"op": "send", "peer": 1, "blocks": [1]}]],
            [[{"op": "recv", "peer": 0, "blocks": [1], "reduce": False}]],
        ],
    }


def _set(*path, value):
    def damage(doc):
        *where, last = path
        for key in where:
            doc = doc[key]
        doc[last] = value
    return damage


def _drop(*path):
    def damage(doc):
        *where, last = path
        for key in where:
            doc = doc[key]
        del doc[last]
    return damage


#: Rank 0's first op: the send, or in ``copy_document`` the copy.
FIRST = ("programs", 0, 0, 0)

#: (name, document, damage, the refusal's text): every way a document
#: can be malformed, each refused with a ScheduleError naming it.
DAMAGE = [
    ("no collective", base_document, _drop("collective"), "labels"),
    ("nranks a bool", base_document, _set("nranks", value=True), "labels"),
    ("nblocks a string", base_document, _set("nblocks", value="1"),
     "labels"),
    ("root a string", base_document, _set("root", value="0"), "labels"),
    ("root not a rank", base_document, _set("root", value=2), "labels"),
    ("k a float", base_document, _set("k", value=1.5), "labels"),
    ("meta a list", base_document, _set("meta", value=[1]), "labels"),
    ("programs an int", base_document, _set("programs", value=5),
     "'programs' must be a list"),
    ("one program short", base_document, _set("programs", value=[[]]),
     "expected 2 rank programs, got 1"),
    ("program an int", base_document, _set("programs", 1, value=3),
     "rank 1: a program must be a list of steps"),
    ("step an int", base_document, _set("programs", 0, 0, value=1),
     "rank 0 step 0: a step must be a list of ops"),
    ("op a string", base_document, _set(*FIRST, value="send"),
     "rank 0 step 0 op 0: an op must be an object"),
    ("op without peer", base_document, _drop(*FIRST, "peer"),
     "peer must be an int"),
    ("peer a float", base_document, _set(*FIRST, "peer", value=1.0),
     "peer must be an int"),
    ("peer a bool", base_document, _set(*FIRST, "peer", value=True),
     "peer must be an int"),
    ("blocks a string", base_document, _set(*FIRST, "blocks", value="0"),
     "blocks must be a list of ints"),
    ("block id a bool", base_document, _set(*FIRST, "blocks", value=[False]),
     "blocks must be a list of ints"),
    ("reduce a string", base_document,
     _set("programs", 1, 0, 0, "reduce", value="no"),
     "reduce must be true or false"),
    ("copy src a string", copy_document, _set(*FIRST, "src", value="0"),
     "copy src/dst must be ints"),
    ("copy without dst", copy_document, _drop(*FIRST, "dst"),
     "copy src/dst must be ints"),
    ("op without kind", base_document, _drop(*FIRST, "op"),
     "unknown op kind None"),
    # Structural refusals: the words every way into a Schedule uses.
    ("empty op", base_document, _set(*FIRST, "blocks", value=[]),
     "rank 0: an op must carry at least one block"),
    ("empty step", base_document, _set("programs", 0, 0, value=[]),
     "rank 0: step 0 must contain at least one op"),
    ("duplicate block", base_document, _set(*FIRST, "blocks", value=[0, 0]),
     r"rank 0: a send carries duplicate blocks: \(0, 0\)"),
    ("peer out of range", base_document, _set(*FIRST, "peer", value=7),
     r"rank 0: peer 7 out of range \(p=2\)"),
    ("id past int64", base_document, _set(*FIRST, "peer", value=1 << 70),
     "out of range"),
]


@pytest.mark.parametrize("name, document, damage, message", DAMAGE,
                         ids=[d[0] for d in DAMAGE])
def test_damage_is_refused(name, document, damage, message):
    doc = document()
    schedule_from_json(json.dumps(doc))  # intact, it reads
    damage(doc)
    with pytest.raises(ScheduleError, match=message):
        schedule_from_json(json.dumps(doc))
