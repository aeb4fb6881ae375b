"""Schedule serialization: JSON round trip for the schedule IR.

Schedules are pure data, and making them serializable buys three things a
schedule-IR library needs:

* **Inspection** — dump any algorithm's communication structure to a file
  and diff it against another radix/process count (``repro-validate
  --dump``).
* **Interchange** — external tools (visualizers, other simulators, an
  MPICH code generator) can consume the exact schedules this library
  verified.
* **Regression pinning** — tests can assert an algorithm's structure
  hasn't drifted by comparing serialized forms.

The format is deliberately literal (one JSON object per op) rather than
compressed: schedules are megabytes only at scales where you'd regenerate
them from the builder anyway.  Being literal, it is also the way to
write a schedule by hand: :func:`schedule_from_json` reads the ops
straight into the schedule's columns
(:meth:`~repro.core.schedule.Schedule.from_columns`), and refuses every
malformed document with :class:`~repro.errors.ScheduleError`.

This is also the one module that knows the **blob codec**
(:func:`dumps_blob` / :func:`loads_blob`): the opaque, fast encoding of
whole artifacts that the disk tier (:mod:`repro.core.cache`) files and
the tuning service ships — a base64 pickle today, and replaceable by a
raw-table format in this file alone.
"""

from __future__ import annotations

import base64
import io
import json
import pickle
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from ..errors import ReproError, ScheduleError
from . import schedule as _schedule_module
from .schedule import (
    _OLD_LAYOUT,
    OP_COPY,
    OP_RECV,
    OP_REDUCE_RECV,
    OP_SEND,
    Schedule,
    _checked_labels,
    assemble,
)

__all__ = [
    "schedule_to_json",
    "schedule_from_json",
    "save_schedule",
    "load_schedule",
    "dumps_blob",
    "loads_blob",
]

_FORMAT_VERSION = 1


def schedule_to_json(schedule: Schedule) -> str:
    """Serialize a schedule to a JSON string (stable key order)."""
    cols = schedule.columns()
    ops: List[Dict] = []
    kinds, peers = cols.kinds.tolist(), cols.peers.tolist()
    for kind, peer, ids in zip(
        kinds, peers, cols.blocks_of(np.arange(len(kinds)))
    ):
        if kind == OP_SEND:
            ops.append({"op": "send", "peer": peer, "blocks": list(ids)})
        elif kind == OP_COPY:
            ops.append({"op": "copy", "src": ids[0], "dst": ids[1]})
        else:
            ops.append({"op": "recv", "peer": peer, "blocks": list(ids),
                        "reduce": kind == OP_REDUCE_RECV})
    bounds = cols.step_starts()[0].tolist()
    step_ptr = cols.step_ptr.tolist()
    payload = {
        "format": _FORMAT_VERSION,
        "collective": schedule.collective,
        "algorithm": schedule.algorithm,
        "nranks": schedule.nranks,
        "nblocks": schedule.nblocks,
        "root": schedule.root,
        "k": schedule.k,
        "meta": _jsonable_meta(schedule.meta),
        # Rank r's steps open at bounds[step_ptr[r]:step_ptr[r + 1] - 1].
        "programs": [
            [ops[a:b] for a, b in zip(bounds[lo:hi - 1], bounds[lo + 1:hi])]
            for lo, hi in zip(step_ptr, step_ptr[1:])
        ],
    }
    return json.dumps(payload, sort_keys=True)


def _jsonable_meta(meta: Dict) -> Dict:
    """Meta may hold tuples/ints; coerce to JSON-safe structures."""
    out = {}
    for key, value in meta.items():
        if isinstance(value, tuple):
            out[key] = list(value)
        elif isinstance(value, (str, int, float, bool, list, dict)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out


def _malformed(where: str, what: str) -> ScheduleError:
    return ScheduleError(f"malformed schedule JSON: {where}: {what}")


def _is_int(value: object) -> bool:
    return type(value) is int  # JSON's true/false are not ids


def _read_op(raw: object, where: str) -> Tuple[int, int, List[int]]:
    """One op dict as ``(op code, peer, block ids)``; a copy's peer is
    −1 and its blocks are ``[src, dst]``."""
    if not isinstance(raw, dict):
        raise _malformed(where, f"an op must be an object, got {raw!r}")
    kind = raw.get("op")
    if kind == "copy":
        ids = [raw.get("src"), raw.get("dst")]
        if not all(map(_is_int, ids)):
            raise _malformed(where, f"copy src/dst must be ints, got {ids}")
        return OP_COPY, -1, ids
    if kind not in ("send", "recv"):
        raise ScheduleError(f"unknown op kind {kind!r} in serialized schedule")
    peer, ids = raw.get("peer"), raw.get("blocks")
    if not _is_int(peer):
        raise _malformed(where, f"peer must be an int, got {peer!r}")
    if not isinstance(ids, list) or not all(map(_is_int, ids)):
        raise _malformed(where, f"blocks must be a list of ints, got {ids!r}")
    if kind == "send":
        return OP_SEND, peer, ids
    reduce = raw.get("reduce", False)
    if type(reduce) is not bool:
        raise _malformed(where,
                         f"reduce must be true or false, got {reduce!r}")
    return (OP_REDUCE_RECV if reduce else OP_RECV), peer, ids


def schedule_from_json(text: str) -> Schedule:
    """Reconstruct a schedule, reading its ops straight into columns.

    Raises :class:`ScheduleError` on every malformed document — bad
    JSON, another format, a label of the wrong type (the test a
    pickle's labels pass), a ``programs``, step or ``blocks`` that is
    not a list, an op field that is not an int — and on a structurally
    invalid schedule: :meth:`Schedule.from_columns` refuses empty ops
    and steps, duplicate blocks and ids out of range in the words it
    uses for every way in.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"malformed schedule JSON: {exc}") from exc
    if not isinstance(payload, dict) or "programs" not in payload:
        raise ScheduleError("schedule JSON must be an object with 'programs'")
    version = payload.get("format")
    if type(version) is not int or version != _FORMAT_VERSION:
        raise ScheduleError(
            f"unsupported schedule format {version!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    labels = _checked_labels({"meta": {}, **payload},
                             "malformed schedule JSON")
    programs = payload["programs"]
    if not isinstance(programs, list):
        raise ScheduleError(
            f"schedule JSON 'programs' must be a list, got {programs!r}"
        )
    if len(programs) != labels["nranks"]:
        raise ScheduleError(
            f"expected {labels['nranks']} rank programs, got {len(programs)}"
        )
    kinds: List[int] = []
    peers: List[int] = []
    nblk: List[int] = []
    seg_blocks: List[int] = []
    step_lens: List[int] = []
    nsteps: List[int] = []
    for rank, steps in enumerate(programs):
        if not isinstance(steps, list):
            raise _malformed(f"rank {rank}",
                             "a program must be a list of steps")
        nsteps.append(len(steps))
        for s, ops in enumerate(steps):
            if not isinstance(ops, list):
                raise _malformed(f"rank {rank} step {s}",
                                 "a step must be a list of ops")
            step_lens.append(len(ops))
            for i, raw in enumerate(ops):
                kind, peer, ids = _read_op(raw, f"rank {rank} step {s} op {i}")
                kinds.append(kind)
                peers.append(peer)
                nblk.append(len(ids))
                seg_blocks.extend(ids)
    # Ids stay int64 here, so one past int32 fails the range check
    # instead of wrapping into range.
    try:
        wide_peers = np.asarray(peers, dtype=np.int64)
        wide_blocks = np.asarray(seg_blocks, dtype=np.int64)
    except OverflowError as exc:
        raise ScheduleError(f"peer or block ids out of range: {exc}") from None
    columns = assemble(
        np.asarray(kinds, dtype=np.int8), wide_peers,
        np.asarray(nblk, dtype=np.int64), wide_blocks,
        np.asarray(step_lens, dtype=np.int64),
        np.asarray(nsteps, dtype=np.int64),
    )
    return Schedule.from_columns(columns=columns, **labels)


def save_schedule(schedule: Schedule, path: Union[str, Path]) -> Path:
    """Write a schedule to ``path`` as JSON; returns the path."""
    path = Path(path)
    path.write_text(schedule_to_json(schedule))
    return path


def load_schedule(path: Union[str, Path]) -> Schedule:
    """Read a schedule previously written by :func:`save_schedule`."""
    return schedule_from_json(Path(path).read_text())


def dumps_blob(value) -> str:
    """Encode one artifact as the ASCII blob stores and the wire carry."""
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


class _BlobUnpickler(pickle.Unpickler):
    """``pickle.loads`` that refuses a schedule blob of the op-object
    layout (store format 4) by name: its classes are gone from
    :mod:`repro.core.schedule`, and an ``AttributeError`` would not
    say why."""

    def find_class(self, module: str, name: str):
        if (module == _schedule_module.__name__
                and not hasattr(_schedule_module, name)):
            raise ScheduleError(_OLD_LAYOUT)
        return super().find_class(module, name)


def loads_blob(text: str, kind: type):
    """Decode a :func:`dumps_blob` string that must hold a ``kind``.

    Raises whatever the codec raises on undecodable text, and
    :class:`~repro.errors.ReproError` on a wrong type; callers treat
    every exception alike (disk tier: quarantine; client: contract
    violation).  Only decode blobs this program or its service wrote —
    unpickling foreign bytes can run arbitrary code.
    """
    value = _BlobUnpickler(io.BytesIO(base64.b64decode(text))).load()
    if not isinstance(value, kind):
        raise ReproError(
            f"blob decoded to {type(value).__name__}, not {kind.__name__}"
        )
    return value
