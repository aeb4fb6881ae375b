"""Discrete-event network simulator — the reproduction's stand-in for
Frontier and Polaris hardware (see DESIGN.md §2 for the substitution
rationale)."""

from .machine import DragonflySpec, GiBps, MachineSpec, us
from .machines import by_name, frontier, get, polaris, reference, resolve
from .noise import NoiseModel
from .simulate import ENGINES, SimResult, TrafficSummary, simulate, traffic_summary
from .trace import TimelineStats, timeline_stats

__all__ = [
    "MachineSpec",
    "DragonflySpec",
    "us",
    "GiBps",
    "frontier",
    "polaris",
    "reference",
    "by_name",
    "get",
    "resolve",
    "NoiseModel",
    "simulate",
    "SimResult",
    "ENGINES",
    "traffic_summary",
    "TrafficSummary",
    "timeline_stats",
    "TimelineStats",
]
