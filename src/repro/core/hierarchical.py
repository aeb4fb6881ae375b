"""Hierarchical (two-level) collectives — the Hasanov-style composition.

The paper's k-ring is one answer to heterogeneous intranode/internode
links; the other production answer — and the hierarchical strategy the
paper cites as its inspiration ([17], Hasanov et al.) — is explicit
two-level composition: reduce within each node to a leader over the fast
fabric, run the internode collective among leaders only, then broadcast
within each node.  This module builds that composition out of the
library's existing kernels via a general *rank remapping* primitive, so
any registered nblocks-1 allreduce can serve as the leader-level
algorithm (including the generalized ones, radix and all).

The ablation benchmark ``bench_hierarchical.py`` pits this against k-ring
and flat recursive multiplying on the 8-process-per-node Frontier model —
the three-way comparison the paper's §II-B3 discussion implies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import ScheduleError
from .knomial import knomial_bcast, knomial_reduce
from .primitives import compose
from .registry import build_schedule, info
from .schedule import OP_COPY, Schedule, assemble, spans

__all__ = ["remap_ranks", "hierarchical_allreduce"]


def remap_ranks(
    schedule: Schedule, mapping: Sequence[int], nranks: int
) -> Schedule:
    """Embed a schedule built for a small group into a larger rank space.

    ``mapping[i]`` is the global rank playing the schedule's rank ``i``;
    unmapped global ranks get empty programs.  Everything else (blocks,
    op structure) is preserved, which is what makes two-level composition
    a pure reuse of the existing single-level builders.
    """
    if len(mapping) != schedule.nranks:
        raise ScheduleError(
            f"mapping covers {len(mapping)} ranks but schedule has "
            f"{schedule.nranks}"
        )
    if len(set(mapping)) != len(mapping):
        raise ScheduleError("rank mapping must be injective")
    for g in mapping:
        if not 0 <= g < nranks:
            raise ScheduleError(f"mapped rank {g} out of range for {nranks}")

    # Global rank g plays the schedule's rank local[g]; unmapped ranks
    # read the empty span past the last rank's.
    cols, n = schedule.columns(), schedule.nranks
    local = np.full(nranks, n)
    local[list(mapping)] = np.arange(n)

    def placed(ptr: np.ndarray) -> np.ndarray:
        ptr = np.append(ptr, ptr[-1])
        return spans(ptr[local], ptr[local + 1])

    ops = placed(cols.op_ptr)
    to = np.asarray(mapping, dtype=np.int32)
    embedded = assemble(
        cols.kinds[ops],
        np.where(cols.kinds != OP_COPY, to[cols.peers], -1)[ops],
        np.diff(cols.seg_bounds)[ops],
        cols.seg_blocks[placed(cols.seg_bounds[cols.op_ptr])],
        cols.step_lens()[placed(cols.step_ptr - np.arange(n + 1))],
        np.append(cols.nsteps(), 0)[local],
    )
    return Schedule.from_columns(
        schedule.collective,
        schedule.algorithm,
        nranks,
        schedule.nblocks,
        embedded,
        root=mapping[schedule.root] if schedule.root is not None else None,
        k=schedule.k,
        meta={**schedule.meta, "remapped_from": schedule.nranks},
    )


def _on_every_node(local: Schedule, nodes: int) -> Schedule:
    """``local`` run by every node at once: node ``n``'s ranks
    ``n·ppn … n·ppn + ppn − 1`` play its ranks ``0 … ppn − 1``."""
    cols, ppn = local.columns(), local.nranks
    offset = np.repeat(np.arange(nodes, dtype=np.int32) * ppn, len(cols.kinds))
    peers = np.tile(cols.peers, nodes)
    tiled = assemble(
        np.tile(cols.kinds, nodes),
        np.where(np.tile(cols.kinds != OP_COPY, nodes), peers + offset, -1),
        np.tile(np.diff(cols.seg_bounds), nodes),
        np.tile(cols.seg_blocks, nodes),
        np.tile(cols.step_lens(), nodes),
        np.tile(cols.nsteps(), nodes),
    )
    # Phase typing; composed below.
    return Schedule.from_columns(
        "allreduce", "hierarchical", nodes * ppn, 1, tiled
    )


def hierarchical_allreduce(
    p: int,
    ppn: int,
    *,
    intra_k: int = 2,
    leader_algorithm: str = "recursive_multiplying",
    leader_k: Optional[int] = None,
) -> Schedule:
    """Two-level allreduce: intranode k-nomial reduce → internode
    allreduce among node leaders → intranode k-nomial bcast.

    ``leader_algorithm`` may be any registered whole-buffer allreduce
    (``recursive_doubling``, ``recursive_multiplying``, ``knomial``,
    ``binomial``); block-partitioned ones (ring family, Rabenseifner)
    use a different block geometry and are rejected.
    """
    if p < 1 or ppn < 1:
        raise ScheduleError(f"need p >= 1 and ppn >= 1, got {p}, {ppn}")
    if p % ppn != 0:
        raise ScheduleError(
            f"hierarchical composition needs ppn | p ({ppn} does not "
            f"divide {p})"
        )
    nodes = p // ppn
    entry = info("allreduce", leader_algorithm)
    if leader_k is None:
        leader_k = entry.default_k if entry.takes_k else None

    phases: List[Schedule] = []

    # Phase 1: each node's members reduce onto their leader (local rank 0).
    if ppn > 1:
        local_reduce = knomial_reduce(ppn, intra_k, root=0)
        phases.append(_on_every_node(local_reduce, nodes))

    # Phase 2: leaders run the internode allreduce.
    if nodes > 1:
        outer = build_schedule("allreduce", leader_algorithm, nodes, k=leader_k)
        if outer.nblocks != 1:
            raise ScheduleError(
                f"leader algorithm {leader_algorithm!r} partitions the "
                f"buffer (nblocks={outer.nblocks}); hierarchical "
                f"composition needs a whole-buffer allreduce"
            )
        leaders = [node * ppn for node in range(nodes)]
        phases.append(remap_ranks(outer, leaders, p))

    # Phase 3: leaders broadcast the result within their nodes.
    if ppn > 1:
        local_bcast = knomial_bcast(ppn, intra_k, root=0)
        phases.append(_on_every_node(local_bcast, nodes))

    if not phases:  # p == 1
        none = np.zeros(0, dtype=np.int64)
        return Schedule.from_columns(
            "allreduce", "hierarchical", 1, 1,
            assemble(none, none, none, none, none, np.zeros(1, np.int64)),
        )
    sched = compose(
        "allreduce",
        "hierarchical",
        phases,
        k=leader_k,
        meta={
            "ppn": ppn,
            "intra_k": intra_k,
            "leader_algorithm": leader_algorithm,
        },
    )
    return sched
