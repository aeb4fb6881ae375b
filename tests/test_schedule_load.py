"""A pickled :class:`~repro.core.schedule.Schedule` is checked on load.

The blob holds the labels and the seven column arrays, each as its
dtype tag and raw bytes.  Every damage below must raise
:class:`~repro.errors.ScheduleError` from ``loads_blob`` — before any
reader indexes through a bad pointer — and a disk-tier entry holding
it must read as a ``semantic`` quarantine followed by a rebuild.  A
store written in format 4 (the op-object layout) boots cold.
"""

import json

import numpy as np
import pytest

from repro.core.cache import schedule_key
from repro.core.registry import build_schedule
from repro.core.schedule import (
    _ARRAYS,
    OP_RECV,
    OP_SEND,
    Schedule,
    assemble,
)
from repro.core.serialize import dumps_blob, loads_blob
from repro.errors import ScheduleError
from repro.store import DiskStore, open_schedule_store, schedule_store_key
from oracle import CopyOp, RankProgram, RecvOp, SendOp, from_programs
from test_schedule_ir import PROGRAMS_LAYOUT_BLOB

#: (collective, algorithm, p, k): k-ring moves many blocks per rank.
KRING = ("allreduce", "kring", 8, 2)


def _with_a_copy() -> Schedule:
    """No registry builder emits a local copy; this one does."""
    p0, p1 = RankProgram(rank=0), RankProgram(rank=1)
    p0.add(CopyOp(src=0, dst=1), SendOp(peer=1, blocks=(1,)))
    p1.add(RecvOp(peer=0, blocks=(1,)))
    return from_programs("bcast", "t", 2, 2, [p0, p1], root=0)


def _column(state, name):
    tag, raw = state["columns"][name]
    return np.frombuffer(raw, dtype=tag).copy()


def _put(state, name, arr):
    state["columns"][name] = (arr.dtype.str, arr.tobytes())


def _edit(name, change):
    """A damage that rewrites one column array in place."""
    def damage(state):
        arr = _column(state, name)
        change(arr, state)
        _put(state, name, arr)
    return damage


def _first_move(state):
    return int(np.flatnonzero(_column(state, "kinds") != 3)[0])


def _peer_out_of_range(arr, state):
    arr[_first_move(state)] = state["nranks"]


def _self_send(arr, state):
    ptr = _column(state, "op_ptr")
    i = int(ptr[1])  # rank 1's first op
    arr[i] = 1


def _block_past_nblocks(arr, state):
    arr[0] = state["nblocks"]


def _swap_12(arr, state):
    assert arr[1] != arr[2]
    arr[1], arr[2] = arr[2], arr[1]


def _wrong_dtype(state):
    _put(state, "peers", _column(state, "peers").astype("<i8"))


def _truncated(name):
    def damage(state):
        tag, raw = state["columns"][name]
        state["columns"][name] = (tag, raw[:-np.dtype(tag).itemsize])
    return damage


def _nranks(state):
    state["nranks"] = 0


def _meta(state):
    state["meta"] = ["phases"]


def _root(state):
    state["root"] = state["nranks"]


def _missing_column(state):
    del state["columns"]["steps_raw"]


def _unknown_op_code(arr, state):
    arr[0] = 7


def _empty_first_step(arr, state):
    arr[1] = 0  # rank 0's first step ends where it starts


def _empty_first_op(arr, state):
    arr[1] = 0  # op 0's blocks end where they start


def _copy_with_a_peer(arr, state):
    arr[int(np.flatnonzero(_column(state, "kinds") == 3)[0])] = 0


DAMAGE = [
    ("peer out of range", KRING, _edit("peers", _peer_out_of_range),
     "peer 8 out of range"),
    ("self-send", KRING, _edit("peers", _self_send),
     "self-communication"),
    ("block id past nblocks", KRING, _edit("seg_blocks", _block_past_nblocks),
     r"blocks \[8\] out of range \(nblocks=8\)"),
    ("op_ptr not monotone", KRING, _edit("op_ptr", _swap_12), "op_ptr"),
    ("seg_bounds not monotone", KRING, _edit("seg_bounds", _swap_12),
     "seg_bounds"),
    ("steps_raw not monotone", KRING, _edit("steps_raw", _swap_12),
     "steps_raw"),
    ("wrong dtype", KRING, _wrong_dtype, "peers is not a flat <i4 column"),
    ("truncated kinds", KRING, _truncated("kinds"), "op_ptr"),
    ("truncated seg_blocks", KRING, _truncated("seg_blocks"), "seg_bounds"),
    ("truncated peers", KRING, _truncated("peers"), "peers has"),
    ("truncated step_ptr", KRING, _truncated("step_ptr"), "step_ptr"),
    ("no ranks", KRING, _nranks, "labels"),
    ("meta not a dict", KRING, _meta, "labels"),
    ("root not a rank", KRING, _root, "labels"),
    ("missing column", KRING, _missing_column, "expected the columns"),
    ("unknown op code", KRING, _edit("kinds", _unknown_op_code), "op code"),
    ("empty step", KRING, _edit("steps_raw", _empty_first_step),
     "rank 0: step 0 must contain at least one op"),
    ("op with no block", KRING, _edit("seg_bounds", _empty_first_op),
     "rank 0: an op must carry at least one block"),
]
#: Damage only a hand-built schedule can carry.
COPY_DAMAGE = [
    ("copy with a peer", _with_a_copy, _edit("peers", _copy_with_a_peer),
     "copy"),
]


def _build(params):
    if callable(params):
        return params()
    collective, algorithm, p, k = params
    return build_schedule(collective, algorithm, p, k=k)


def damaged_blob(sched, damage, monkeypatch):
    """``dumps_blob(sched)`` with ``damage`` applied to its state."""
    state = sched.__getstate__()
    state["columns"] = dict(state["columns"])
    damage(state)
    with monkeypatch.context() as patch:
        patch.setattr(Schedule, "__getstate__", lambda self: state)
        return dumps_blob(sched)


@pytest.mark.parametrize(
    "name, params, damage, message", DAMAGE + COPY_DAMAGE,
    ids=[d[0] for d in DAMAGE + COPY_DAMAGE],
)
def test_damage_is_refused_on_load(name, params, damage, message,
                                   monkeypatch):
    blob = damaged_blob(_build(params), damage, monkeypatch)
    with pytest.raises(ScheduleError, match=message):
        loads_blob(blob, Schedule)


#: Columns for two ranks, rank 0 sending block 0 to rank 1, bent into
#: what no op object can hold: (block count per op, op count per step,
#: step count per rank, the ops' block ids).
UNHOLDABLE = [
    ("op with no block", ([1, 0], [1, 1], [1, 1], [0]),
     "rank 1: an op must carry at least one block"),
    ("step with no op", ([1, 1], [1, 0, 1], [2, 1], [0, 0]),
     "rank 0: step 1 must contain at least one op"),
    ("send naming a block twice", ([2, 2], [1, 1], [1, 1], [0, 0, 0, 0]),
     "rank 0: a send carries duplicate blocks: (0, 0)"),
    ("receive naming a block twice", ([2, 3], [1, 1], [1, 1],
                                      [0, 1, 1, 0, 1]),
     "rank 1: a receive names duplicate blocks: (1, 0, 1)"),
]


@pytest.mark.parametrize("name, shape, message", UNHOLDABLE,
                         ids=[e[0] for e in UNHOLDABLE])
def test_every_entry_refuses_what_op_objects_refuse(name, shape, message,
                                                    monkeypatch):
    nblk, step_lens, nsteps, blocks = (np.array(x) for x in shape)
    cols = assemble(np.array([OP_SEND, OP_RECV]), np.array([1, 0]), nblk,
                    blocks, step_lens, nsteps)
    with pytest.raises(ScheduleError) as built:
        Schedule.from_columns("bcast", "t", 2, 2, cols, root=0)
    assert str(built.value) == message

    def swap_in(state):
        state["columns"] = {
            name: (dtype.str, getattr(cols, name).astype(dtype).tobytes())
            for name, dtype in _ARRAYS.items()
        }

    blob = damaged_blob(build_schedule("scatter", "binomial", 2), swap_in,
                        monkeypatch)
    with pytest.raises(ScheduleError) as loaded:
        loads_blob(blob, Schedule)
    assert str(loaded.value) == message


def test_a_copy_may_name_one_block_twice():
    p0, p1 = RankProgram(rank=0), RankProgram(rank=1)
    p0.add(CopyOp(src=1, dst=1), SendOp(peer=1, blocks=(1, 0)))
    p1.add(RecvOp(peer=0, blocks=(1, 0)))
    sched = from_programs("bcast", "t", 2, 2, [p0, p1], root=0)
    assert Schedule.from_columns("bcast", "t", 2, 2, sched.columns(),
                                 root=0) == sched
    assert loads_blob(dumps_blob(sched), Schedule) == sched


@pytest.mark.parametrize("params", [KRING, _with_a_copy])
def test_an_intact_blob_loads(params):
    sched = _build(params)
    clone = loads_blob(dumps_blob(sched), Schedule)
    assert clone == sched and clone.fingerprint() == sched.fingerprint()


@pytest.mark.parametrize(
    "name, params, damage, message", DAMAGE, ids=[d[0] for d in DAMAGE]
)
def test_disk_tier_quarantines_damage_and_rebuilds(
    tmp_path, name, params, damage, message, monkeypatch
):
    collective, algorithm, p, k = params
    key = schedule_store_key(schedule_key(collective, algorithm, p, k=k))
    made, hit = open_schedule_store(tmp_path).get_or_build(
        collective, algorithm, p, k=k
    )
    assert not hit
    # Re-file the entry with a damaged blob: the checksum is recomputed,
    # so only the load-time check can catch it.
    store = DiskStore(tmp_path)
    payload = store.get(key)
    payload["schedule_pickle"] = damaged_blob(made, damage, monkeypatch)
    store.put(key, payload)

    fresh = open_schedule_store(tmp_path)
    rebuilt, hit = fresh.get_or_build(collective, algorithm, p, k=k)
    assert not hit and rebuilt == made
    assert [p.name for p in fresh.store.quarantined() if "semantic" in p.name]
    _, hit = open_schedule_store(tmp_path).get_or_build(
        collective, algorithm, p, k=k
    )
    assert hit  # the write-through healed the entry


def test_a_format_4_entry_is_quarantined_and_rebuilt(tmp_path):
    """What a format-4 writer left: the op-object blob, stamped 4."""
    key = schedule_store_key(schedule_key("bcast", "binomial", 2))
    store = DiskStore(tmp_path)
    store.put(key, {"schedule_pickle": PROGRAMS_LAYOUT_BLOB})
    path = store.path_for(key)
    doc = json.loads(path.read_text())
    doc["format"] = 4
    path.write_text(json.dumps(doc))

    cache = open_schedule_store(tmp_path)
    rebuilt, hit = cache.get_or_build("bcast", "binomial", 2)
    assert not hit and rebuilt == build_schedule("bcast", "binomial", 2)
    assert any("format-4" in p.name for p in cache.store.quarantined())
    _, hit = open_schedule_store(tmp_path).get_or_build("bcast", "binomial", 2)
    assert hit
