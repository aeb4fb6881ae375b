"""repro.obs — unified observability: metrics + spans + merged traces.

Before this layer, each subsystem told its own story in its own shape:
:class:`~repro.core.cache.ScheduleCache` kept an ad-hoc counter object,
``simulate(..., collect_timeline=True)`` returned raw tuples, the lossy
channel counted retries on itself, and the sweep engine threaded
``cache_hit`` booleans through result records.  ``repro.obs`` gives them
one vocabulary:

* a **metrics registry** (:mod:`repro.obs.metrics`) — labeled counters,
  gauges, and fixed-bucket histograms with snapshot/delta/reset and
  JSON + Prometheus text exposition;
* a **span tracer** (:mod:`repro.obs.tracing`) — nested
  ``span("build")`` / ``span("simulate")`` host-time regions whose IDs
  thread through ``ProcessPoolExecutor`` workers, so a parallel sweep
  yields one merged trace;
* a **Perfetto export** (:mod:`repro.obs.export`) — host spans and
  simulated message timelines on one timebase.

Usage — process-global (what the CLIs do)::

    import repro.obs as obs

    obs.enable()
    ... run builds / simulations / sweeps ...
    snap = obs.get_obs().metrics.snapshot()
    print(snap.to_prometheus())
    obs.get_obs().write_trace("trace.json")

or explicitly injected, for library callers that want isolation::

    o = obs.Obs(enabled=True)
    repro.simulate(schedule, machine, nbytes=1 << 16, obs=o)

**Disabled-by-default and near-free when off.**  Every instrumentation
site in the hot paths guards on a single attribute check
(``if obs.enabled:``) before building any label dict or span object, and
the DES engine selects an uninstrumented inner loop up front.  Every
perfbench workload runs with the scope disabled, so the disabled path's
cost is part of the benchmark's ``cycle_ms``; what *enabling* it costs
is the ``obs.overhead`` gate in ``repro-bench-perf``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

from .metrics import (
    Counter,
    DEFAULT_TIME_BUCKETS,
    Gauge,
    Histogram,
    MetricSeries,
    MetricsRegistry,
    MetricsSnapshot,
)
from .tracing import (
    NULL_SPAN,
    SimTimeline,
    SpanRecord,
    TraceContext,
    Tracer,
)
from .export import to_perfetto, write_perfetto

__all__ = [
    "Obs",
    "OBS",
    "get_obs",
    "enable",
    "disable",
    "is_enabled",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MetricSeries",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_TIME_BUCKETS",
    "Tracer",
    "TraceContext",
    "SpanRecord",
    "SimTimeline",
    "to_perfetto",
    "write_perfetto",
]


class Obs:
    """One observability scope: an enabled flag, a registry, a tracer.

    The process-global instance (:data:`OBS`) is what the instrumented
    subsystems consult by default; construct your own and pass it via the
    ``obs=`` keyword of :mod:`repro.api` entry points for isolation.
    The object identity of :data:`OBS` is stable for the process
    lifetime — ``enable()``/``disable()`` toggle it in place, so hot
    modules may cache a reference and test ``.enabled``.
    """

    __slots__ = ("enabled", "metrics", "tracer")

    def __init__(
        self,
        *,
        enabled: bool = False,
        context: Optional[TraceContext] = None,
    ) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(context)

    # -- lifecycle -----------------------------------------------------

    def enable(self, context: Optional[TraceContext] = None) -> "Obs":
        """Turn instrumentation on (optionally joining a parent trace)."""
        if context is not None:
            self.tracer = Tracer(context)
        self.enabled = True
        return self

    def disable(self) -> "Obs":
        """Turn instrumentation off; recorded spans/metrics are kept."""
        self.enabled = False
        return self

    def reset(self) -> "Obs":
        """Zero metrics and drop spans/timelines; keeps the enabled flag."""
        self.metrics.reset()
        self.tracer.reset()
        return self

    # -- recording -----------------------------------------------------

    def span(self, name: str, **args: object):
        """A timed region; a shared no-op object when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, **args)

    # -- export --------------------------------------------------------

    def trace_dict(self, *, metadata: Optional[Dict[str, object]] = None) -> Dict:
        """The merged Perfetto/Chrome trace as a JSON-ready dict."""
        return to_perfetto(
            self.tracer.spans(), self.tracer.timelines(), metadata=metadata
        )

    def write_trace(
        self,
        path: Union[str, Path],
        *,
        metadata: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Write the merged Perfetto trace collected so far."""
        return write_perfetto(
            self.tracer.spans(),
            self.tracer.timelines(),
            path,
            metadata=metadata,
        )

    def prometheus(self) -> str:
        """The current metrics snapshot in Prometheus text exposition.

        Convenience for live scrape surfaces — the tuning service's
        ``GET /metrics`` returns exactly this string.
        """
        return self.metrics.snapshot().to_prometheus()

    def write_metrics(self, path: Union[str, Path]) -> Path:
        """Write the metrics snapshot as JSON, plus Prometheus text
        alongside it (same stem, ``.prom`` suffix)."""
        path = Path(path)
        snap = self.metrics.snapshot()
        path.write_text(snap.to_json() + "\n")
        path.with_suffix(".prom").write_text(snap.to_prometheus())
        return path


#: The process-global scope. Identity is stable; only the flag toggles.
OBS = Obs()


def get_obs(obs: Optional[Obs] = None) -> Obs:
    """Resolve an explicit scope, defaulting to the process-global one."""
    return obs if obs is not None else OBS


def enable() -> Obs:
    """Enable the process-global scope (and return it)."""
    return OBS.enable()


def disable() -> Obs:
    """Disable the process-global scope (and return it)."""
    return OBS.disable()


def is_enabled() -> bool:
    """True when the process-global scope is recording."""
    return OBS.enabled
