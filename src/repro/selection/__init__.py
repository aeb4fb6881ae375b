"""Algorithm selection — MPICH-style tuning tables, the selection-config
document, default policies, and the exhaustive tuner (paper §VI-G)."""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    "ALLGATHER_CUTOFF": ".defaults",
    "ALLREDUCE_SHORT_CUTOFF": ".defaults",
    "BCAST_MEDIUM_CUTOFF": ".defaults",
    "BCAST_SHORT_CUTOFF": ".defaults",
    "REDUCE_SHORT_CUTOFF": ".defaults",
    "fixed_policy": ".defaults",
    "mpich_policy": ".defaults",
    "vendor_policy": ".defaults",
    "CONFIG_FORMAT": ".table",
    "CONFIG_VERSION": ".table",
    "Choice": ".table",
    "Rule": ".table",
    "SelectionConfig": ".table",
    "SelectionTable": ".table",
    "SweepEntry": ".tuner",
    "config_from_sweeps": ".tuner",
    "radix_grid": ".tuner",
    "sweep_collective": ".tuner",
    "tune": ".tuner",
})

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
