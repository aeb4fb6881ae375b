"""The one step walk (:func:`repro.core.schedule.step_rounds`) against
the progress loops it replaced.

Every "what can run after what" question reads the walk: how far each
rank gets under eager, rendezvous and threshold sends
(:func:`repro.check.interp.interpret`), the message dependency depth
(:func:`repro.core.analysis.dependency_rounds`) and the order in which
:func:`repro.core.validate.verify` and
:func:`repro.check.dataflow.check_dataflow` evaluate contribution sets.
Two references keep it honest, both written over the IR objects:

* :func:`reference_interpret` — the per-rank fixpoint ``interpret`` ran
  before the walk, kept verbatim;
* the op-by-op oracle runner (``tests/oracle.py``) driven by a
  contribution-set model written here: ``verify``'s outcome (pass, or
  the exception type and first line) and the final contribution sets
  must equal the oracle's.

Over registry × p ∈ {1, 2, 3, 5, 8, 12, 16} × every radix × roots
{0, p − 1}, plus the malformed hand-built schedules of
``tests/test_schedule_ir.py`` and edited registry schedules.  The one
place the two may differ is pinned separately: on a malformed schedule a
block mismatch is reported before a deadlock, which is reported before
leftover sends.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest

from repro.check.dataflow import check_dataflow
from repro.check.interp import OpRef, interpret, match_channels
from repro.core.registry import _REGISTRY, max_radix
from repro.core.schedule import Schedule
from repro.core.validate import (
    _contributions,
    initial_state,
    postcondition_errors,
    verify,
)
from repro.errors import ExecutionError, ValidationError

from oracle import RecvOp, SendOp, Step, programs_of, run_schedule
from test_check_mutations import mutated
from test_schedule_ir import MALFORMED, handmade


def reference_interpret(
    schedule: Schedule, *, eager_threshold: Optional[int] = None,
    nbytes: int = 0,
):
    """``(pc, stuck)`` of the per-rank progress fixpoint ``interpret``
    ran before the step walk, verbatim."""
    matching = match_channels(schedule)
    p = schedule.nranks
    programs = programs_of(schedule)
    blocks = (
        schedule.block_map(nbytes)
        if eager_threshold not in (None, 0)
        else None
    )

    def send_is_rendezvous(op: SendOp) -> bool:
        if eager_threshold is None:
            return False
        if eager_threshold <= 0:
            return True
        assert blocks is not None
        return blocks.bytes_of(op.blocks) > eager_threshold

    # Precompute, per (rank, step): the match refs its completion waits
    # on.  Recvs always wait on their matching send being posted;
    # rendezvous sends additionally wait on their matching recv being
    # posted.  Unmatched ops wait forever (None sentinel).
    waits: List[List[List[Optional[OpRef]]]] = []
    for rank in range(p):
        per_rank: List[List[Optional[OpRef]]] = []
        for step_idx, step in enumerate(programs[rank].steps):
            deps: List[Optional[OpRef]] = []
            for op_idx, op in enumerate(step.ops):
                ref = OpRef(rank, step_idx, op_idx)
                if isinstance(op, RecvOp):
                    deps.append(matching.recv_to_send.get(ref))
                elif isinstance(op, SendOp) and send_is_rendezvous(op):
                    deps.append(matching.send_to_recv.get(ref))
            per_rank.append(deps)
        waits.append(per_rank)

    pc = [0] * p
    lengths = [len(programs[r].steps) for r in range(p)]
    changed = True
    while changed:
        changed = False
        for rank in range(p):
            # A rank may clear several steps per sweep once its peers
            # have advanced; loop until this rank blocks again.
            while pc[rank] < lengths[rank]:
                deps = waits[rank][pc[rank]]
                # An op at (q, j) is posted iff rank q has entered step
                # j, i.e. pc[q] >= j (ops post at step entry).
                if any(d is None or pc[d.rank] < d.step for d in deps):
                    break
                pc[rank] += 1
                changed = True

    stuck = [r for r in range(p) if pc[r] < lengths[r]]
    return pc, stuck


class ContributionModel:
    """The contribution-set data model for the oracle runner: what a
    slot holds is the set of ranks whose inputs are folded into it
    (``None`` is garbage); violations are recorded, first one first."""

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        self.state = initial_state(schedule)
        self.violations: List[str] = []

    def snapshot(self, rank, op):
        payload = tuple(self.state[rank][b] for b in op.blocks)
        for b, content in zip(op.blocks, payload):
            if content is None:
                self.violations.append(
                    f"rank {rank} sends uninitialized (garbage) block {b} "
                    f"to rank {op.peer}"
                )
        return payload

    def apply_recv(self, rank, op, payload):
        for b, content in zip(op.blocks, payload):
            local = self.state[rank][b]
            if not op.reduce:
                self.state[rank][b] = content
            elif local is None:
                self.violations.append(
                    f"rank {rank} reduces an incoming message into "
                    f"uninitialized (garbage) block {b}"
                )
                self.state[rank][b] = content
            elif content is not None:
                overlap = local & content
                if overlap and not self.schedule.meta.get("idempotent_only"):
                    self.violations.append(
                        f"rank {rank} block {b} double-counts contributions "
                        f"{sorted(overlap)} (local {sorted(local)} ∪ "
                        f"incoming {sorted(content)}) — corrupts "
                        f"non-idempotent reductions (SUM)"
                    )
                self.state[rank][b] = local | content

    def apply_copy(self, rank, op):
        src = self.state[rank][op.src]
        if src is None:
            self.violations.append(
                f"rank {rank} copies uninitialized (garbage) block "
                f"{op.src} into block {op.dst}"
            )
        self.state[rank][op.dst] = src


def oracle_verify(schedule: Schedule):
    """``verify`` over the oracle runner: the final contribution sets,
    or the first error raised."""
    model = ContributionModel(schedule)
    run_schedule(schedule, model)
    if model.violations:
        raise ValidationError(f"{schedule.describe()}: {model.violations[0]}")
    errors = postcondition_errors(schedule, model.state)
    if errors:
        raise ValidationError(
            f"{schedule.describe()}: postcondition failed:\n  {errors[0]}"
        )
    return model.state


def outcome(fn, schedule):
    """``("ok", result)`` or ``(error type, first line of its text)``."""
    try:
        return "ok", fn(schedule)
    except (ExecutionError, ValidationError) as exc:
        return type(exc).__name__, str(exc).splitlines()[0]


def walked_verify(schedule: Schedule):
    verify(schedule)
    return _contributions(schedule)[0]


def grid(entry):
    """``entry`` over p ∈ {1, 2, 3, 5, 8, 12, 16} × every radix × roots
    {0, p − 1}."""
    for p in (1, 2, 3, 5, 8, 12, 16):
        ks = [None]
        if entry.takes_k:
            cap = max(entry.min_k, max_radix(entry.collective, entry.name, p))
            ks = range(entry.min_k, cap + 1)
        roots = sorted({0, p - 1}) if entry.takes_root else [0]
        for k in ks:
            for root in roots:
                yield entry.build(p, k=k, root=root)


def assert_walk_matches_references(schedule: Schedule) -> None:
    for threshold in (None, 0):
        got = interpret(schedule, eager_threshold=threshold)
        assert (got.pc, got.stuck) == reference_interpret(
            schedule, eager_threshold=threshold
        ), (schedule.describe(), threshold)
    assert outcome(walked_verify, schedule) == outcome(
        oracle_verify, schedule
    ), schedule.describe()


@pytest.mark.parametrize(
    "entry", [_REGISTRY[key] for key in sorted(_REGISTRY)],
    ids=lambda e: f"{e.collective}/{e.name}",
)
def test_registry_grid_matches_the_references(entry):
    for schedule in grid(entry):
        assert_walk_matches_references(schedule)


def _drop(kind):
    def edit(steps):
        steps[1][0] = Step(tuple(
            op for op in steps[1][0].ops if not isinstance(op, kind)
        ))
    return edit


def _swap_first_steps(steps):
    steps[0][0], steps[0][1] = steps[0][1], steps[0][0]


def _receive_from_rank_2(steps):
    steps[0][0] = Step(tuple(
        RecvOp(2, op.blocks, op.reduce) if isinstance(op, RecvOp) else op
        for op in steps[0][0].ops
    ))


#: Editing slips on a ring allreduce (the ``test_check_mutations.py``
#: corpus), and a rendezvous send beside a starved receive.
EDITED = [
    ("drop recv", mutated("allreduce", "ring", 4, edit=_drop(RecvOp))),
    ("drop send", mutated("allreduce", "ring", 4, edit=_drop(SendOp))),
    # Mismatches on several ranks: the one the lockstep visit order
    # meets first is reported.
    ("reorder step",
     mutated("allreduce", "ring", 4, edit=_swap_first_steps)),
    ("truncate program",
     mutated("allreduce", "ring", 4, edit=lambda steps: steps[2].pop())),
    ("rendezvous send beside a starved receive", handmade(
        3, 3, (0, [SendOp(1, (0,))], [RecvOp(2, (2,))]),
        (1, [RecvOp(0, (0,))]),
    )),
]


@pytest.mark.parametrize(
    "name, schedule", MALFORMED + EDITED,
    ids=[row[0] for row in MALFORMED + EDITED],
)
def test_malformed_schedules_match_the_references(name, schedule):
    assert_walk_matches_references(schedule)


#: ``(name, schedule, the oracle's first line, verify's first line)``:
#: where the oracle stops at the first error its progress loop meets,
#: ``verify`` reports a block mismatch before a deadlock before
#: leftover sends.
PRECEDENCE = [
    (
        # The mismatched message is never posted: its sender waits on a
        # message nobody sends.
        "mismatch behind a deadlock",
        handmade(
            2, 2,
            (0, [RecvOp(1, (0,))], [SendOp(1, (0,))]),
            (1, [RecvOp(0, (1,))]),
        ),
        "deadlock — no rank can make progress.",
        "rank 1 step 0 expected blocks (1,) from rank 0 but the in-flight "
        "message carries (0,)",
    ),
    (
        # Rank 0 receives from the wrong neighbour.
        "swapped peer",
        mutated("allreduce", "ring", 4, edit=_receive_from_rank_2),
        "deadlock — no rank can make progress.",
        "rank 0 step 1 expected blocks (3,) from rank 1 but the in-flight "
        "message carries (2,)",
    ),
    (
        "deadlock beside a leftover send",
        handmade(
            3, 3,
            (0, [SendOp(2, (0,))]),
            (1, [RecvOp(2, (1,))]),
        ),
        "deadlock — no rank can make progress.",
        "deadlock — no rank can make progress.",
    ),
]


@pytest.mark.parametrize(
    "name, schedule, oracle_says, verify_says", PRECEDENCE,
    ids=[row[0] for row in PRECEDENCE],
)
def test_verify_reports_mismatch_then_deadlock_then_leftovers(
    name, schedule, oracle_says, verify_says
):
    prefix = f"{schedule.describe()}: "
    assert outcome(oracle_verify, schedule) == (
        "ExecutionError", prefix + oracle_says
    )
    assert outcome(walked_verify, schedule) == (
        "ExecutionError", prefix + verify_says
    )


def test_dataflow_finding_names_the_step_that_sent():
    """A repeated send is reported at the step that sent garbage, not at
    the first op in the program with the same text."""
    schedule = handmade(
        3, 3,
        (0, [SendOp(1, (1,))]),
        (1, [SendOp(2, (1,)), RecvOp(0, (1,))], [SendOp(2, (1,))]),
        (2, [RecvOp(1, (1,))], [RecvOp(1, (1,))]),
    )
    garbage: Dict[int, List] = {}
    for f in check_dataflow(schedule):
        if f.code == "dataflow-garbage-send":
            garbage.setdefault(f.rank, []).append((f.step, f.op))
    assert garbage == {0: [(0, "send[1]->1")], 1: [(1, "send[1]->2")]}
    (finding,) = [f for f in check_dataflow(schedule)
                  if f.code == "dataflow-garbage-send" and f.rank == 1]
    assert finding.message == (
        "step 1: rank 1 sends uninitialized (garbage) block 1 to rank 2"
    )
