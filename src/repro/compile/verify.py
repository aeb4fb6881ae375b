"""Verification of a compiled artifact that arrived as bytes.

A lowered artifact *is* its schedule's sealed columns, so there is
nothing to check in process.  One decoded from a disk-tier entry or a
``/schedule`` payload may be stale, misfiled or damaged, so the disk
tier's semantic check (:mod:`repro.compile.cache`) and
``TuningClient.compiled_schedule`` run :func:`verify_compiled` before
first use.  Two rungs, each raising :class:`~repro.errors.CompileError`:

1. **identity** — labels and source fingerprint match the schedule;
2. **columns** — every column has the schedule's dtype, shape and
   contents, and the send payload signatures match.  The first
   difference is located through the schedule's own ``op_ptr`` and
   ``positions()`` — never an untrusted index: a pickled schedule's
   layout, pointers and ranges were checked when it loaded — and names
   rank, step and op: a stale peer table, a wrong op code, wrong
   segment blocks, a moved step boundary.

FIFO tags, the staging plan and the FIFO mismatches derive from the
verified columns.  The independent re-derivation of the tables from the
test oracle's op objects (``tests/oracle.py``) is ``reference_lowering``
in ``tests/test_schedule_ir.py``;
``tests/test_compile_mutations.py`` is the corruption corpus.
"""

from __future__ import annotations

import numpy as np

from ..core.schedule import Columns, Schedule
from ..errors import CompileError
from .program import OP_NAMES, CompiledSchedule

__all__ = ["verify_compiled"]

#: The array columns, in the order differences are reported.
_COLUMNS = ("op_ptr", "step_ptr", "steps_raw", "kinds", "peers",
            "seg_bounds", "seg_blocks")


def _fail(rank: int, step: int, detail: str) -> None:
    raise CompileError(
        f"compiled program corrupt at rank {rank} step {step}: {detail}"
    )


def _owner(ptr: np.ndarray, index: int) -> int:
    """The segment of offset table ``ptr`` that holds ``index``."""
    return int(np.searchsorted(ptr, index, side="right")) - 1


def _layout(arr) -> str:
    if not isinstance(arr, np.ndarray):
        return type(arr).__name__
    return f"{arr.dtype}{list(arr.shape)}"


def verify_compiled(compiled: CompiledSchedule, schedule: Schedule) -> None:
    """Check ``compiled`` is a faithful lowering of ``schedule``.

    Raises :class:`~repro.errors.CompileError` on the first violation;
    returns ``None`` when every column equals the schedule's.
    """
    # Rung 1: identity.
    for field_name in ("collective", "algorithm", "nranks", "nblocks",
                       "root", "k"):
        got = getattr(compiled, field_name)
        want = getattr(schedule, field_name)
        if got != want:
            raise CompileError(
                f"compiled artifact {field_name}={got!r} does not match "
                f"schedule {field_name}={want!r}"
            )
    fingerprint = schedule.fingerprint()
    if compiled.source_fingerprint != fingerprint:
        raise CompileError(
            f"compiled artifact was lowered from a different schedule: "
            f"source fingerprint {compiled.source_fingerprint[:16]}… != "
            f"{fingerprint[:16]}…"
        )

    # Rung 2: the columns, layout first (a missing one reads as None),
    # then contents.
    got, want = compiled.columns, schedule.columns()
    for name in _COLUMNS:
        a, b = getattr(got, name, None), getattr(want, name)
        if _layout(a) != _layout(b):
            raise CompileError(
                f"compiled {name} column is {_layout(a)}, the schedule's "
                f"is {_layout(b)}"
            )
    for name in _COLUMNS:
        diff = np.flatnonzero(getattr(got, name) != getattr(want, name))
        if len(diff):
            _locate(name, int(diff[0]), got, want)
    if getattr(got, "signatures", None) != want.signatures:
        raise CompileError(
            "staging plan does not match the schedule's send payload "
            "signatures"
        )


def _locate(name: str, j: int, got: Columns, want: Columns) -> None:
    """Word the first difference, entry ``j`` of column ``name``."""
    if name == "steps_raw":
        r = _owner(want.step_ptr, j)
        lo, hi = want.step_ptr[r], want.step_ptr[r + 1]
        _fail(r, max(0, j - int(lo) - 1),
              f"step boundary table {got.steps_raw[lo:hi].tolist()} does "
              f"not match the schedule's step layout "
              f"{want.steps_raw[lo:hi].tolist()}")
    # Per-op columns: seg_bounds entry j closes op j - 1, seg_blocks
    # entry j lies in the op whose segment holds it.
    i = {"kinds": j, "peers": j, "seg_bounds": max(0, j - 1),
         "seg_blocks": _owner(want.seg_bounds, j)}.get(name, -1)
    if not 0 <= i < len(want.kinds):
        raise CompileError(
            f"compiled {name} table differs from the schedule's at entry "
            f"{j} ({getattr(got, name)[j]} != {getattr(want, name)[j]})"
        )
    r = _owner(want.op_ptr, i)
    step, op = int(want.positions()[0][i]), i - int(want.op_ptr[r])
    if name == "kinds":
        kind, wkind = int(got.kinds[i]), int(want.kinds[i])
        _fail(r, step,
              f"op {op}: wrong op code — table says "
              f"{OP_NAMES.get(kind, kind)!r}, schedule has "
              f"{OP_NAMES[wkind]!r}")
    if name == "peers":
        _fail(r, step,
              f"op {op}: stale peer table — compiled peer "
              f"{int(got.peers[i])}, schedule says {int(want.peers[i])}")
    blocks = got.seg_blocks[got.seg_bounds[i]:got.seg_bounds[i + 1]]
    wanted = want.seg_blocks[want.seg_bounds[i]:want.seg_bounds[i + 1]]
    _fail(r, step,
          f"op {op}: segment blocks {blocks.tolist()} do not match the "
          f"schedule's {wanted.tolist()} (offset off-by-one?)")
