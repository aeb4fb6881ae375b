"""Algorithm selection — MPICH-style tuning tables, the selection-config
document, default policies, and the exhaustive tuner (paper §VI-G)."""

from .defaults import (
    ALLGATHER_CUTOFF,
    ALLREDUCE_SHORT_CUTOFF,
    BCAST_MEDIUM_CUTOFF,
    BCAST_SHORT_CUTOFF,
    REDUCE_SHORT_CUTOFF,
    fixed_policy,
    mpich_policy,
    vendor_policy,
)
from .table import (
    CONFIG_FORMAT,
    CONFIG_VERSION,
    Choice,
    Rule,
    SelectionConfig,
    SelectionTable,
)
from .tuner import (
    SweepEntry,
    config_from_sweeps,
    radix_grid,
    sweep_collective,
    tune,
)

__all__ = [
    "Choice",
    "Rule",
    "SelectionTable",
    "SelectionConfig",
    "CONFIG_FORMAT",
    "CONFIG_VERSION",
    "mpich_policy",
    "vendor_policy",
    "fixed_policy",
    "tune",
    "config_from_sweeps",
    "sweep_collective",
    "radix_grid",
    "SweepEntry",
    "BCAST_SHORT_CUTOFF",
    "BCAST_MEDIUM_CUTOFF",
    "ALLREDUCE_SHORT_CUTOFF",
    "ALLGATHER_CUTOFF",
    "REDUCE_SHORT_CUTOFF",
]
