"""The four workloads, by name (see each module's docstring for why)."""

from .execute_data import ExecuteData
from .scale_sim import ScaleSim
from .serve_durable import ServeDurable
from .tune_cold import TuneCold

WORKLOADS = {
    wl.name: wl for wl in (TuneCold, ScaleSim, ExecuteData, ServeDurable)
}
