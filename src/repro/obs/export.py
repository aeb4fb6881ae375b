"""Unified Perfetto / Chrome trace export.

Merges two kinds of record onto one timebase:

* **host spans** (:class:`~repro.obs.tracing.SpanRecord`) — wall-clock
  work: schedule builds, simulator runs, sweep chunks, tuner phases;
* **simnet timelines** (:class:`~repro.obs.tracing.SimTimeline`) — the
  simulator's per-message transfer windows, in *simulated* seconds.

A bare :class:`~repro.simnet.simulate.SimResult` simulated with a
timeline exports the same way, as one timeline with no host spans.

The trace origin is the earliest host span start; every host event is
expressed in microseconds since that origin.  Each simnet timeline is
anchored at the host start of the ``simulate`` span that produced it, so
zooming into a ``simulate`` span shows the simulated traffic it
computed, laid out under it.  Simulated durations are rendered 1 sim-us
= 1 trace-us (a *simulated* millisecond occupies a millisecond of track
regardless of how fast the simulator computed it); the per-track process
names make the unit switch explicit.

Track layout (``pid``/``tid`` in the Chrome trace-event sense):

====================  =================================================
track                 contents
====================  =================================================
pid 1, tid per thread  host spans (one tid per worker pid/thread pair)
pid 1000+i, tid=rank   i-th simnet timeline, one track per rank
====================  =================================================

Open the written file at https://ui.perfetto.dev or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import TraceError
from .tracing import SimTimeline, SpanRecord

if TYPE_CHECKING:  # simnet imports obs: a runtime import would be circular
    from ..simnet.simulate import SimResult

__all__ = ["to_perfetto", "write_perfetto"]

_HOST_PID = 1
_SIM_PID_BASE = 1000


def require_timeline(result: "SimResult") -> List[Tuple]:
    """A simulator result's message timeline, or a :class:`TraceError`
    when it was simulated without one."""
    # A missing timeline is a result-shape problem (the caller forgot
    # collect_timeline=True), not a machine-configuration one.
    if result.timeline is None:
        raise TraceError(
            "SimResult has no timeline — simulate with timeline=True "
            "(collect_timeline=True at the simnet layer)"
        )
    return list(result.timeline)


def to_perfetto(
    spans: Union[Sequence[SpanRecord], "SimResult"],
    timelines: Sequence[SimTimeline] = (),
    *,
    metadata: Optional[Dict[str, object]] = None,
) -> Dict:
    """Build the Chrome trace-event JSON dict from spans + sim timelines.

    ``spans`` may instead be a bare
    :class:`~repro.simnet.simulate.SimResult`: its message timeline is
    exported as the one sim timeline, with no host spans.
    """
    if hasattr(spans, "timeline"):
        timelines = (SimTimeline(span_id="", label="simulated collective",
                                 events=tuple(require_timeline(spans)),
                                 makespan=spans.time),)
        spans = ()
    events: List[Dict] = []
    origin = min((s.t0 for s in spans), default=0.0)
    span_start = {s.span_id: s.t0 for s in spans}

    # One host tid per distinct (os pid, thread name), dense and stable
    # in first-appearance order so serial runs export reproducibly.
    tids: Dict[Tuple[int, str], int] = {}
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": _HOST_PID,
            "tid": 0,
            "args": {"name": "host (wall-clock us)"},
        }
    )
    for s in spans:
        key = (s.pid, s.thread)
        tid = tids.get(key)
        if tid is None:
            tid = len(tids)
            tids[key] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _HOST_PID,
                    "tid": tid,
                    "args": {"name": f"pid {s.pid} / {s.thread}"},
                }
            )
        events.append(
            {
                "name": s.name,
                "cat": "host",
                "ph": "X",
                "ts": (s.t0 - origin) * 1e6,
                "dur": max((s.t1 - s.t0) * 1e6, 1e-3),
                "pid": _HOST_PID,
                "tid": tid,
                "args": dict(s.args, span_id=s.span_id,
                             parent_id=s.parent_id or ""),
            }
        )

    for i, tl in enumerate(timelines):
        pid = _SIM_PID_BASE + i
        anchor = span_start.get(tl.span_id, origin)
        base_us = (anchor - origin) * 1e6
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"simnet: {tl.label} (simulated us)"},
            }
        )
        for src, dst, nbytes, t0, t1, link in tl.events:
            events.append(
                {
                    "name": f"{src}->{dst} ({link})",
                    "cat": f"sim-{link}",
                    "ph": "X",
                    "ts": base_us + t0 * 1e6,
                    "dur": max((t1 - t0) * 1e6, 1e-3),
                    "pid": pid,
                    "tid": src,
                    "args": {"bytes": nbytes, "dst": dst, "link": link},
                }
            )
        events.append(
            {
                "name": "makespan",
                "cat": "sim-completion",
                "ph": "i",
                "ts": base_us + tl.makespan * 1e6,
                "pid": pid,
                "tid": 0,
                "s": "p",
            }
        )

    trace: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        trace["metadata"] = metadata
    return trace


def write_perfetto(
    spans: Union[Sequence[SpanRecord], "SimResult"],
    timelines: Sequence[SimTimeline] = (),
    path: Union[str, Path] = "trace.json",
    *,
    metadata: Optional[Dict[str, object]] = None,
) -> Path:
    """Write the merged trace (or a bare ``SimResult``'s, see
    :func:`to_perfetto`) to ``path``; open it at ui.perfetto.dev."""
    path = Path(path)
    path.write_text(
        json.dumps(to_perfetto(spans, timelines, metadata=metadata))
    )
    return path
