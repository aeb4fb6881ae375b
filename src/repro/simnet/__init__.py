"""Discrete-event network simulator — the reproduction's stand-in for
Frontier and Polaris hardware (see DESIGN.md §2 for the substitution
rationale)."""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    "DragonflySpec": ".machine",
    "GiBps": ".machine",
    "MachineSpec": ".machine",
    "us": ".machine",
    "by_name": ".machines",
    "frontier": ".machines",
    "get": ".machines",
    "polaris": ".machines",
    "reference": ".machines",
    "resolve": ".machines",
    "NoiseModel": ".noise",
    "ENGINES": ".simulate",
    "SimResult": ".simulate",
    "TrafficSummary": ".simulate",
    "traffic_summary": ".simulate",
    "TimelineStats": ".trace",
    "timeline_stats": ".trace",
})

# ``simulate`` names both a submodule and the function it defines.  The
# import system binds the submodule on the package whenever it is first
# loaded, so a lazy row would leave ``repro.simnet.simulate`` the module
# or the function depending on which import ran first; the eager import
# makes it the function however the package is reached.
from .simulate import simulate  # noqa: E402

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
