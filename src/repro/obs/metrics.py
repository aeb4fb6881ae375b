"""Metrics registry: counters, gauges, and fixed-bucket histograms.

One process-wide (but explicitly injectable) registry collects every
subsystem's counters under stable Prometheus-style names —
``repro_cache_lookups_total{cache="schedule",outcome="hit"}``,
``repro_engine_events_total``, ``repro_sweep_point_seconds_bucket`` — so
the tuner, the perf benchmark, and the ``repro-trace`` CLI all read one
shape instead of four incompatible per-subsystem stat dicts.

The DES kernel counts every run in ``repro_engine_runs_total`` and its
heap events in ``repro_engine_events_total``; a run answered by a
certified capacity-free timeline, with no event loop, also counts in
``repro_engine_certified_total`` and adds no event.

Design points:

* **Labeled series.**  A metric name plus a sorted ``(key, value)`` label
  tuple identifies one series.  Instruments are get-or-create:
  ``registry.counter("repro_cache_hits_total", cache="schedule")``
  returns the same :class:`Counter` object every call, so hot sites can
  also resolve a handle once and ``inc()`` it directly.
* **Snapshot / delta / reset.**  :meth:`MetricsRegistry.snapshot` returns
  an immutable :class:`MetricsSnapshot`; ``snap.delta(prev)`` subtracts
  an earlier snapshot series-by-series (gauges keep their latest value);
  :meth:`MetricsRegistry.reset` zeroes everything in place.
* **Exposition.**  Snapshots render as JSON (:meth:`MetricsSnapshot.to_dict`)
  and Prometheus text format (:meth:`MetricsSnapshot.to_prometheus`).
* **Merging.**  Worker processes ship their snapshots back through the
  sweep pool; :meth:`MetricsRegistry.merge` folds them into the parent
  registry (counters add, gauges take the max, histograms add buckets),
  so ``run_sweep(--jobs N)`` yields one coherent set of series.

Instruments themselves are *not* thread-safe beyond CPython's atomic
``+=`` on ints/floats; the subsystems that increment from worker threads
(the lossy channel monitor) tolerate the benign races the same way their
own retry counters already did.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import ObsError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSeries",
    "MetricsSnapshot",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
]

Labels = Tuple[Tuple[str, str], ...]

#: Default histogram buckets for wall-clock durations in seconds —
#: log-spaced from 100 us to ~100 s, the range one sweep point to one
#: full tuner run spans.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0, 100.0
)


def _labels_of(labels: Mapping[str, object]) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (use :class:`Gauge` for levels)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ObsError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, utilization)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's current level."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Raise the level by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Lower the level by ``amount``."""
        self.value -= amount

    def set_max(self, value: float) -> None:
        """Keep the running maximum (peak heap depth, peak concurrency)."""
        if value > self.value:
            self.value = float(value)


class Histogram:
    """Fixed-bucket histogram: cumulative bucket counts plus sum/count.

    ``buckets`` are upper bounds (the implicit ``+Inf`` bucket is always
    present as the total count).  Buckets are fixed at creation so worker
    snapshots merge bucket-for-bucket.
    """

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ObsError(f"histogram buckets must be sorted and unique: {buckets}")
        self.buckets = bounds
        self.counts = [0] * len(bounds)  # per-bucket (non-cumulative) counts
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one sample into its bucket and the sum/count."""
        idx = bisect_left(self.buckets, value)
        if idx < len(self.counts):
            self.counts[idx] += 1
        self.sum += value
        self.count += 1


@dataclass(frozen=True)
class MetricSeries:
    """One immutable (name, labels) series from a snapshot."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: Labels
    value: float = 0.0
    # Histogram-only payload (empty tuples otherwise):
    buckets: Tuple[float, ...] = ()
    counts: Tuple[int, ...] = ()
    count: int = 0

    @property
    def key(self) -> Tuple[str, Labels]:
        """The registry identity: ``(name, sorted labels)``."""
        return (self.name, self.labels)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (histograms include buckets/counts/sum)."""
        out: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
        }
        if self.kind == "histogram":
            out["buckets"] = list(self.buckets)
            out["counts"] = list(self.counts)
            out["sum"] = self.value
            out["count"] = self.count
        else:
            out["value"] = self.value
        return out


def _prom_labels(labels: Labels, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(labels) + ([extra] if extra else [])
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


def _prom_num(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable point-in-time view of a registry (the export unit)."""

    series: Tuple[MetricSeries, ...]

    def get(self, name: str, **labels: object) -> Optional[MetricSeries]:
        """The series exactly matching ``name`` + labels, or ``None``."""
        want = _labels_of(labels)
        for s in self.series:
            if s.name == name and s.labels == want:
                return s
        return None

    def value(self, name: str, **labels: object) -> float:
        """Series value (histograms: the sum); 0.0 when absent."""
        s = self.get(name, **labels)
        return s.value if s is not None else 0.0

    def total(self, name: str) -> float:
        """Sum over every label combination of one metric name."""
        return sum(s.value for s in self.series if s.name == name)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: ``{"metrics": [series...]}``."""
        return {"metrics": [s.to_dict() for s in self.series]}

    def to_json(self, *, indent: int = 2) -> str:
        """Stable (sorted-keys) JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Render the snapshot in Prometheus text exposition format."""
        lines: List[str] = []
        seen_type: set = set()
        for s in sorted(self.series, key=lambda s: (s.name, s.labels)):
            if s.name not in seen_type:
                lines.append(f"# TYPE {s.name} {s.kind}")
                seen_type.add(s.name)
            if s.kind == "histogram":
                cumulative = 0
                for bound, n in zip(s.buckets, s.counts):
                    cumulative += n
                    lines.append(
                        f"{s.name}_bucket"
                        f"{_prom_labels(s.labels, ('le', _prom_num(bound)))}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{s.name}_bucket{_prom_labels(s.labels, ('le', '+Inf'))}"
                    f" {s.count}"
                )
                lines.append(
                    f"{s.name}_sum{_prom_labels(s.labels)} {_prom_num(s.value)}"
                )
                lines.append(f"{s.name}_count{_prom_labels(s.labels)} {s.count}")
            else:
                lines.append(
                    f"{s.name}{_prom_labels(s.labels)} {_prom_num(s.value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    def delta(self, prev: "MetricsSnapshot") -> "MetricsSnapshot":
        """Series-wise difference vs an earlier snapshot.

        Counters and histogram counts subtract; gauges keep their current
        value (a level has no meaningful difference).  Series absent from
        ``prev`` pass through unchanged.
        """
        base = {s.key: s for s in prev.series}
        out: List[MetricSeries] = []
        for s in self.series:
            old = base.get(s.key)
            if old is None or s.kind == "gauge":
                out.append(s)
            elif s.kind == "histogram":
                out.append(
                    MetricSeries(
                        name=s.name,
                        kind=s.kind,
                        labels=s.labels,
                        value=s.value - old.value,
                        buckets=s.buckets,
                        counts=tuple(
                            a - b for a, b in zip(s.counts, old.counts)
                        ),
                        count=s.count - old.count,
                    )
                )
            else:
                out.append(
                    MetricSeries(
                        name=s.name,
                        kind=s.kind,
                        labels=s.labels,
                        value=s.value - old.value,
                    )
                )
        return MetricsSnapshot(series=tuple(out))


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, Labels], object] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def _get(self, cls, name: str, labels: Mapping[str, object], **kwargs):
        key = (name, _labels_of(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(**kwargs)
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise ObsError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str, **labels: object) -> Counter:
        """Get-or-create the counter for ``name`` + labels."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get-or-create the gauge for ``name`` + labels."""
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        *,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """Get-or-create the histogram (buckets fixed at creation)."""
        return self._get(Histogram, name, labels, buckets=buckets)

    def snapshot(self) -> MetricsSnapshot:
        """Freeze every registered series into an immutable snapshot."""
        series: List[MetricSeries] = []
        for (name, labels), inst in sorted(self._instruments.items()):
            if isinstance(inst, Histogram):
                series.append(
                    MetricSeries(
                        name=name,
                        kind=inst.kind,
                        labels=labels,
                        value=inst.sum,
                        buckets=inst.buckets,
                        counts=tuple(inst.counts),
                        count=inst.count,
                    )
                )
            else:
                series.append(
                    MetricSeries(
                        name=name,
                        kind=inst.kind,  # type: ignore[union-attr]
                        labels=labels,
                        value=inst.value,  # type: ignore[union-attr]
                    )
                )
        return MetricsSnapshot(series=tuple(series))

    def reset(self) -> None:
        """Zero every instrument in place (handles stay valid)."""
        for inst in self._instruments.values():
            if isinstance(inst, Histogram):
                inst.counts = [0] * len(inst.buckets)
                inst.sum = 0.0
                inst.count = 0
            else:
                inst.value = 0.0  # type: ignore[union-attr]

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (worker) snapshot into this registry.

        Counters and histograms accumulate; gauges keep the maximum of
        both sides (peaks stay peaks across process boundaries).
        """
        for s in snapshot.series:
            labels = dict(s.labels)
            if s.kind == "counter":
                self.counter(s.name, **labels).inc(s.value)
            elif s.kind == "gauge":
                self.gauge(s.name, **labels).set_max(s.value)
            elif s.kind == "histogram":
                h = self.histogram(s.name, buckets=s.buckets, **labels)
                if h.buckets != s.buckets:
                    raise ObsError(
                        f"histogram {s.name!r} bucket mismatch on merge"
                    )
                for i, n in enumerate(s.counts):
                    h.counts[i] += n
                h.sum += s.value
                h.count += s.count
            else:  # pragma: no cover - snapshot kinds are closed
                raise ObsError(f"unknown metric kind {s.kind!r}")
