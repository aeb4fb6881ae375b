"""Timeline analysis for simulated collectives.

``simulate(..., collect_timeline=True)`` records every message's transfer
window; this module turns those records into quantitative utilization
summaries (per-link-class busy time, peak concurrency, per-rank receive
load) used by the ablation benchmarks.  The visual form — a
``chrome://tracing`` / Perfetto file, one track per rank — is
:func:`repro.obs.export.write_perfetto`, which takes a bare
:class:`~repro.simnet.simulate.SimResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..obs.export import require_timeline
from .simulate import SimResult

__all__ = ["timeline_stats", "TimelineStats"]


@dataclass(frozen=True)
class TimelineStats:
    """Quantitative summary of a simulated timeline."""

    makespan: float
    busy_time: Dict[str, float]        # per link class, summed transfer time
    max_concurrent: int                # peak simultaneous transfers
    per_rank_recv_bytes: Tuple[int, ...]
    recv_imbalance: float              # max/mean inbound bytes (1.0 = even)

    def utilization(self, link: str) -> float:
        """Aggregate transfer-seconds per second of makespan for a link
        class (can exceed 1.0: many links run in parallel)."""
        if self.makespan <= 0:
            return 0.0
        return self.busy_time.get(link, 0.0) / self.makespan

    def to_dict(self) -> Dict:
        """Plain-dict form (shared stats protocol; JSON-serializable)."""
        return {
            "makespan": self.makespan,
            "busy_time": dict(self.busy_time),
            "max_concurrent": self.max_concurrent,
            "per_rank_recv_bytes": list(self.per_rank_recv_bytes),
            "recv_imbalance": self.recv_imbalance,
        }


def timeline_stats(result: SimResult, nranks: int) -> TimelineStats:
    """Compute :class:`TimelineStats` from a collected timeline."""
    timeline = require_timeline(result)
    busy: Dict[str, float] = {}
    recv_bytes = [0] * nranks
    boundaries: List[Tuple[float, int]] = []
    for src, dst, nbytes, t0, t1, link in timeline:
        busy[link] = busy.get(link, 0.0) + (t1 - t0)
        recv_bytes[dst] += nbytes
        boundaries.append((t0, 1))
        boundaries.append((t1, -1))
    boundaries.sort()
    live = peak = 0
    for _, delta in boundaries:
        live += delta
        peak = max(peak, live)
    mean_recv = sum(recv_bytes) / nranks if nranks else 0.0
    imbalance = (max(recv_bytes) / mean_recv) if mean_recv else 1.0
    return TimelineStats(
        makespan=result.time,
        busy_time=busy,
        max_concurrent=peak,
        per_rank_recv_bytes=tuple(recv_bytes),
        recv_imbalance=imbalance,
    )
