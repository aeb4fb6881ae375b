"""Mutation corpus: every table corruption must die in self-verification.

:func:`repro.compile.verify_compiled` is the ladder that stands between
a corrupt compiled artifact and silently wrong answers — a deserialized
program from a damaged store entry, a buggy lowering change, a bit flip
in a cached table.  This suite proves the ladder actually catches the
corruption classes it was built for, by injecting each one into a
freshly lowered program and requiring a :class:`~repro.errors
.CompileError` that names the offending **rank and step** (the
diagnostic a human needs to find the bad table row).

The corpus mirrors the realistic failure modes:

* **stale peer table** — a peer entry pointing at the wrong rank, as a
  schedule edit without recompilation would leave behind;
* **off-by-one offset** — a block id shifted by one in the segment
  table, the classic flattening bug;
* **shifted step boundary** — a step boundary moved onto its
  neighbour, so an op would run (and crash steps, heartbeats and
  progress would count) one step off;
* **wrong op code** — a reduce-receive demoted to a plain receive
  (data-corrupting if executed: the reduction would be skipped);
* **FIFO tag corruption** — a receive tag that no longer matches the
  sender's emission order.

A clean-grid baseline pins the other half of the contract: on every
registry pair the verifier stays silent, so the ladder cannot be
appeased by simply never firing.
"""

from __future__ import annotations

import re

import pytest

from repro.compile import CompileError, compile_schedule, verify_compiled
from repro.compile.program import OP_RECV, OP_REDUCE_RECV, OP_SEND
from repro.core.registry import (
    COLLECTIVES,
    algorithms_for,
    build_schedule,
)
from repro.errors import ReproError

#: Matches the diagnostic preamble the whole suite requires: the
#: verifier must always name the rank and step of the corrupt row.
RANK_STEP = re.compile(r"corrupt at rank \d+ step \d+")


def _fresh(coll="allreduce", alg="ring", p=8, k=None):
    """A schedule and its unverified compiled artifact, ready to damage."""
    schedule = build_schedule(coll, alg, p, k=k)
    return schedule, compile_schedule(schedule, verify=False)


def _first_op(compiled, kinds):
    """(program, op index) of the first op whose kind is in ``kinds``."""
    for prog in compiled.programs:
        for i, kind in enumerate(prog.kinds):
            if int(kind) in kinds:
                return prog, i
    raise AssertionError(f"corpus schedule has no op of kind {kinds}")


def _expect_corrupt(compiled, schedule, needle: str):
    """Verification must fail, name rank and step, and say why."""
    with pytest.raises(CompileError) as excinfo:
        verify_compiled(compiled, schedule)
    message = str(excinfo.value)
    assert RANK_STEP.search(message), (
        f"diagnostic does not name rank and step: {message!r}"
    )
    assert needle in message, (
        f"diagnostic does not mention {needle!r}: {message!r}"
    )


class TestMutationCorpus:
    def test_stale_peer_table(self):
        schedule, compiled = _fresh()
        prog, i = _first_op(compiled, {OP_SEND, OP_RECV, OP_REDUCE_RECV})
        prog.peers[i] = (int(prog.peers[i]) + 1) % schedule.nranks
        _expect_corrupt(compiled, schedule, "peer")

    def test_off_by_one_offset(self):
        schedule, compiled = _fresh()
        prog, i = _first_op(compiled, {OP_SEND, OP_RECV, OP_REDUCE_RECV})
        lo = int(prog.seg_bounds[i])
        prog.seg_blocks[lo] = (
            int(prog.seg_blocks[lo]) + 1
        ) % schedule.nblocks
        _expect_corrupt(compiled, schedule, "block")

    def test_shifted_step_boundary(self):
        schedule, compiled = _fresh()
        prog = next(p for p in compiled.programs if len(p.steps_raw) > 2)
        # Merge the first two steps by collapsing the interior boundary
        # onto the next one — monotone and covering every op, but not
        # the schedule's step layout.
        prog.steps_raw[1] = prog.steps_raw[2]
        _expect_corrupt(compiled, schedule, "step boundary")

    def test_wrong_op_code(self):
        schedule, compiled = _fresh()
        prog, i = _first_op(compiled, {OP_REDUCE_RECV})
        prog.kinds[i] = OP_RECV  # silently skip the reduction
        _expect_corrupt(compiled, schedule, "op code")

    def test_tag_corruption(self):
        schedule, compiled = _fresh()
        prog, i = _first_op(compiled, {OP_RECV, OP_REDUCE_RECV})
        prog.tags[i] = int(prog.tags[i]) + 1
        _expect_corrupt(compiled, schedule, "tag")

    def test_mutant_never_reaches_execution(self):
        """The default pipeline verifies at lowering time, so a corrupt
        artifact raises before any payload moves."""
        schedule, compiled = _fresh()
        prog, i = _first_op(compiled, {OP_SEND})
        prog.peers[i] = (int(prog.peers[i]) + 1) % schedule.nranks
        with pytest.raises(ReproError):
            verify_compiled(compiled, schedule)


class TestCleanGridBaseline:
    @pytest.mark.parametrize(
        "coll,alg",
        [(c, a) for c in COLLECTIVES for a in algorithms_for(c)],
    )
    def test_verifier_silent_on_registry_pairs(self, coll, alg):
        for p in (4, 8, 9):
            schedule = build_schedule(coll, alg, p)
            verify_compiled(compile_schedule(schedule, verify=False),
                            schedule)
