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
them from the builder anyway.

This is also the one module that knows the **blob codec**
(:func:`dumps_blob` / :func:`loads_blob`): the opaque, fast encoding of
whole artifacts that the disk tier (:mod:`repro.core.cache`) files and
the tuning service ships — a base64 pickle today, and replaceable by a
raw-table format in this file alone.
"""

from __future__ import annotations

import base64
import json
import pickle
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from ..errors import ReproError, ScheduleError
from .schedule import (
    OP_COPY,
    OP_REDUCE_RECV,
    OP_SEND,
    CopyOp,
    Op,
    RankProgram,
    RecvOp,
    Schedule,
    SendOp,
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


def _op_from_dict(raw: Dict) -> Op:
    kind = raw.get("op")
    if kind == "send":
        return SendOp(peer=raw["peer"], blocks=tuple(raw["blocks"]))
    if kind == "recv":
        return RecvOp(
            peer=raw["peer"],
            blocks=tuple(raw["blocks"]),
            reduce=bool(raw.get("reduce", False)),
        )
    if kind == "copy":
        return CopyOp(src=raw["src"], dst=raw["dst"])
    raise ScheduleError(f"unknown op kind {kind!r} in serialized schedule")


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


def schedule_from_json(text: str) -> Schedule:
    """Reconstruct a schedule; raises :class:`ScheduleError` on malformed
    input (including structurally invalid schedules — the Schedule
    constructor re-validates ranges)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"malformed schedule JSON: {exc}") from exc
    if not isinstance(payload, dict) or "programs" not in payload:
        raise ScheduleError("schedule JSON must be an object with 'programs'")
    version = payload.get("format")
    if version != _FORMAT_VERSION:
        raise ScheduleError(
            f"unsupported schedule format {version!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    programs: List[RankProgram] = []
    for rank, raw_prog in enumerate(payload["programs"]):
        prog = RankProgram(rank=rank)
        for raw_step in raw_prog:
            prog.add_step([_op_from_dict(raw) for raw in raw_step])
        programs.append(prog)
    return Schedule(
        collective=payload["collective"],
        algorithm=payload["algorithm"],
        nranks=payload["nranks"],
        nblocks=payload["nblocks"],
        programs=programs,
        root=payload.get("root"),
        k=payload.get("k"),
        meta=payload.get("meta", {}),
    )


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


def loads_blob(text: str, kind: type):
    """Decode a :func:`dumps_blob` string that must hold a ``kind``.

    Raises whatever the codec raises on undecodable text, and
    :class:`~repro.errors.ReproError` on a wrong type; callers treat
    every exception alike (disk tier: quarantine; client: contract
    violation).  Only decode blobs this program or its service wrote —
    unpickling foreign bytes can run arbitrary code.
    """
    value = pickle.loads(base64.b64decode(text))
    if not isinstance(value, kind):
        raise ReproError(
            f"blob decoded to {type(value).__name__}, not {kind.__name__}"
        )
    return value
