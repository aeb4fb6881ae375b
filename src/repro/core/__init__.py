"""Core collective algorithms — the paper's contribution.

Everything here is topology- and data-agnostic: algorithms compile to the
schedule IR (:mod:`repro.core.schedule`), which the runtime executes on
real buffers (:mod:`repro.runtime`) and the simulator times on modeled
hardware (:mod:`repro.simnet`).
"""

from .alltoall import bruck_alltoall, pairwise_alltoall
from .analysis import critical_path_bytes, critical_path_rounds, volume_profile
from .blocks import BlockMap, ExplicitBlockMap, block_offsets, block_sizes
from .bruck import bruck_allgather, dissemination_barrier
from .hierarchical import hierarchical_allreduce, remap_ranks
from .pipeline import chain_bcast, optimal_segments
from .knomial import (
    knomial_allgather,
    knomial_allreduce,
    knomial_bcast,
    knomial_gather,
    knomial_reduce,
    knomial_scatter,
)
from .primitives import compose, dualize_allgather
from .render import render_knomial_tree, render_kring_rounds, render_rounds
from .recursive import (
    recursive_doubling_allgather,
    recursive_doubling_allreduce,
    recursive_doubling_bcast,
    recursive_multiplying_allgather,
    recursive_multiplying_allreduce,
    recursive_multiplying_bcast,
)
from .cache import (
    CacheStats,
    ScheduleCache,
    cached_build_schedule,
    global_schedule_cache,
    schedule_key,
)
from .registry import (
    COLLECTIVES,
    GENERALIZED_ALGORITHMS,
    ROOTED_COLLECTIVES,
    TABLE1,
    AlgorithmInfo,
    algorithms_for,
    build_schedule,
    info,
    max_radix,
)
from .ring import (
    kring_allgather,
    kring_allreduce,
    kring_bcast,
    kring_reduce_scatter,
    ring_allgather,
    ring_allreduce,
    ring_bcast,
    ring_reduce_scatter,
)
from .schedule import Schedule
from .serialize import load_schedule, save_schedule, schedule_from_json, schedule_to_json
from .validate import ValidationReport, verify

__all__ = [
    # IR
    "Schedule",
    "BlockMap",
    "ExplicitBlockMap",
    "block_sizes",
    "block_offsets",
    # registry
    "COLLECTIVES",
    "ROOTED_COLLECTIVES",
    "GENERALIZED_ALGORITHMS",
    "TABLE1",
    "AlgorithmInfo",
    "algorithms_for",
    "build_schedule",
    "info",
    "max_radix",
    # schedule cache
    "ScheduleCache",
    "CacheStats",
    "schedule_key",
    "cached_build_schedule",
    "global_schedule_cache",
    # verification
    "verify",
    "ValidationReport",
    # algorithm builders
    "knomial_bcast",
    "knomial_reduce",
    "knomial_gather",
    "knomial_scatter",
    "knomial_allgather",
    "knomial_allreduce",
    "recursive_doubling_bcast",
    "recursive_doubling_allgather",
    "recursive_doubling_allreduce",
    "recursive_multiplying_bcast",
    "recursive_multiplying_allgather",
    "recursive_multiplying_allreduce",
    "ring_bcast",
    "ring_allgather",
    "ring_allreduce",
    "ring_reduce_scatter",
    "kring_bcast",
    "kring_allgather",
    "kring_allreduce",
    "kring_reduce_scatter",
    # extensions
    "bruck_allgather",
    "dissemination_barrier",
    "pairwise_alltoall",
    "bruck_alltoall",
    "chain_bcast",
    "optimal_segments",
    "hierarchical_allreduce",
    "remap_ranks",
    # analysis & rendering
    "critical_path_rounds",
    "critical_path_bytes",
    "volume_profile",
    "render_knomial_tree",
    "render_kring_rounds",
    "render_rounds",
    # serialization
    "schedule_to_json",
    "schedule_from_json",
    "save_schedule",
    "load_schedule",
    # composition utilities
    "compose",
    "dualize_allgather",
]
