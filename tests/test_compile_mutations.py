"""Mutation corpus: every damaged artifact that arrives as bytes must die
in verification.

A lowered artifact is its schedule's own read-only columns, so nothing
can damage it in process.  What can arrive damaged is a decoded one — a
store entry whose bytes are stale or were edited, a ``/schedule``
payload.  :func:`repro.compile.verify_compiled` stands between such an
artifact and silently wrong answers, so this suite injects each
corruption into a ``loads_blob(dumps_blob(compiled))`` copy and requires
a :class:`~repro.errors.CompileError` that names the offending **rank
and step** (the diagnostic a human needs to find the bad table row):

* **stale peer table** — a peer entry pointing at the wrong rank, as a
  schedule edit without recompilation would leave behind;
* **off-by-one offset** — a block id shifted by one in the segment
  table, the classic flattening bug;
* **shifted step boundary** — a step boundary moved onto its
  neighbour, so an op would run (and crash steps, heartbeats and
  progress would count) one step off;
* **wrong op code** — a reduce-receive demoted to a plain receive
  (data-corrupting if executed: the reduction would be skipped).

FIFO tags are not stored — they derive from the verified columns — so
they cannot be corrupted.  Hostile *shapes* (a truncated column, an
artifact for another p, a non-monotone offset table) must be a
``CompileError`` too, never an ``IndexError`` or ``ValueError``, both
directly and through ``TuningClient.compiled_schedule``.

A clean-grid baseline pins the other half of the contract: on every
registry pair the verifier stays silent, so it cannot be appeased by
simply never firing.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.compile import (
    CompileError,
    CompiledSchedule,
    compile_schedule,
    compiled_store_key,
    open_compiled_store,
    verify_compiled,
)
from repro.compile.program import OP_RECV, OP_REDUCE_RECV, OP_SEND
from repro.core.registry import (
    COLLECTIVES,
    algorithms_for,
    build_schedule,
)
from repro.core.serialize import dumps_blob, loads_blob
from repro.server import TuningClient
from repro.store.disk import DiskStore

#: Matches the diagnostic preamble the corruption rows require: the
#: verifier must name the rank and step of the corrupt row.
RANK_STEP = re.compile(r"corrupt at rank \d+ step \d+")


def _arrived(schedule):
    """``schedule``'s artifact as a store entry or a wire payload
    delivers it: decoded from bytes, its columns read-only."""
    return loads_blob(dumps_blob(compile_schedule(schedule)),
                      CompiledSchedule)


def _replaced(compiled, **columns):
    return dataclasses.replace(
        compiled, columns=compiled.columns._replace(**columns)
    )


def _poked(compiled, name, index, value):
    """``compiled`` with entry ``index`` of column ``name`` set to
    ``value``, in a copy of that column."""
    column = getattr(compiled.columns, name).copy()
    column[index] = value
    return _replaced(compiled, **{name: column})


def _first_op(compiled, kinds):
    """Flat index of the first op whose kind is in ``kinds``."""
    return next(i for i, kind in enumerate(compiled.columns.kinds.tolist())
                if kind in kinds)


def _stale_peer(compiled, schedule):
    i = _first_op(compiled, {OP_SEND, OP_RECV, OP_REDUCE_RECV})
    return _poked(compiled, "peers", i,
                  (compiled.columns.peers[i] + 1) % schedule.nranks)


def _off_by_one_block(compiled, schedule):
    cols = compiled.columns
    lo = cols.seg_bounds[_first_op(compiled, {OP_SEND, OP_RECV,
                                              OP_REDUCE_RECV})]
    return _poked(compiled, "seg_blocks", lo,
                  (cols.seg_blocks[lo] + 1) % schedule.nblocks)


def _shifted_step_boundary(compiled, schedule):
    # Merge a rank's first two steps by collapsing the interior boundary
    # onto the next one — monotone and covering every op, but not the
    # schedule's step layout.
    cols = compiled.columns
    j = next(int(lo) + 1 for lo, hi in zip(cols.step_ptr, cols.step_ptr[1:])
             if hi - lo > 2)
    return _poked(compiled, "steps_raw", j, cols.steps_raw[j + 1])


def _wrong_op_code(compiled, schedule):
    # Silently skip the reduction.
    return _poked(compiled, "kinds", _first_op(compiled, {OP_REDUCE_RECV}),
                  OP_RECV)


def _other_p(compiled, schedule):
    smaller = build_schedule(schedule.collective, schedule.algorithm,
                             schedule.nranks // 2)
    return dataclasses.replace(compiled,
                               columns=compile_schedule(smaller).columns)


def _swapped_op_ptr(compiled, schedule):
    op_ptr = compiled.columns.op_ptr.copy()
    op_ptr[[1, 2]] = op_ptr[[2, 1]]
    return _replaced(compiled, op_ptr=op_ptr)


#: name → (damage, what the diagnostic must mention)
CORRUPTIONS = {
    "stale peer table": (_stale_peer, "peer"),
    "off-by-one offset": (_off_by_one_block, "block"),
    "shifted step boundary": (_shifted_step_boundary, "step boundary"),
    "wrong op code": (_wrong_op_code, "op code"),
}
HOSTILE = {
    "truncated seg_blocks": (
        lambda c, s: _replaced(c, seg_blocks=c.columns.seg_blocks[:-1]),
        "seg_blocks",
    ),
    "kinds one entry short": (
        lambda c, s: _replaced(c, kinds=c.columns.kinds[:-1]), "kinds",
    ),
    "an artifact for another p": (_other_p, "op_ptr"),
    "non-monotone op_ptr": (_swapped_op_ptr, "op_ptr"),
}


def _damaged(row):
    """A schedule and its arrived artifact, damaged as ``row`` says."""
    schedule = build_schedule("allreduce", "ring", 8)
    damage, _needle = row
    return schedule, damage(_arrived(schedule), schedule)


def _expect_corrupt(name):
    """Verification must fail, name rank and step, and say why."""
    schedule, compiled = _damaged(CORRUPTIONS[name])
    with pytest.raises(CompileError) as excinfo:
        verify_compiled(compiled, schedule)
    message = str(excinfo.value)
    assert RANK_STEP.search(message), (
        f"diagnostic does not name rank and step: {message!r}"
    )
    needle = CORRUPTIONS[name][1]
    assert needle in message, (
        f"diagnostic does not mention {needle!r}: {message!r}"
    )


class TestMutationCorpus:
    def test_stale_peer_table(self):
        _expect_corrupt("stale peer table")

    def test_off_by_one_offset(self):
        _expect_corrupt("off-by-one offset")

    def test_shifted_step_boundary(self):
        _expect_corrupt("shifted step boundary")

    def test_wrong_op_code(self):
        _expect_corrupt("wrong op code")

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_shape_is_a_compile_error(self, name):
        schedule, compiled = _damaged(HOSTILE[name])
        with pytest.raises(CompileError, match=HOSTILE[name][1]):
            verify_compiled(compiled, schedule)

    @pytest.mark.parametrize("name", sorted({**CORRUPTIONS, **HOSTILE}))
    def test_the_client_refuses_it(self, monkeypatch, name):
        schedule, compiled = _damaged({**CORRUPTIONS, **HOSTILE}[name])
        client = TuningClient("http://127.0.0.1:9")
        monkeypatch.setattr(client, "schedule", lambda **_kw: {
            "schedule_pickle": dumps_blob(schedule),
            "compiled_pickle": dumps_blob(compiled),
        })
        with pytest.raises(CompileError):
            client.compiled_schedule(collective="allreduce",
                                     algorithm="ring")

    def test_mutant_never_reaches_execution(self, tmp_path):
        """A damaged artifact filed in the store is refused on load: the
        disk tier quarantines it and recompiles, so what runs is the
        schedule's own columns."""
        schedule, damaged = _damaged(CORRUPTIONS["stale peer table"])
        DiskStore(tmp_path).put(compiled_store_key(schedule),
                                {"compiled_pickle": dumps_blob(damaged)})
        cache = open_compiled_store(tmp_path)
        compiled, hit = cache.get_or_compile(schedule)
        assert not hit
        assert compiled.columns is schedule.columns()
        assert any("semantic" in p.name for p in cache.store.quarantined())


class TestCleanGridBaseline:
    @pytest.mark.parametrize(
        "coll,alg",
        [(c, a) for c in COLLECTIVES for a in algorithms_for(c)],
    )
    def test_verifier_silent_on_registry_pairs(self, coll, alg):
        for p in (4, 8, 9):
            schedule = build_schedule(coll, alg, p)
            verify_compiled(_arrived(schedule), schedule)
