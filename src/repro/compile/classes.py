"""Rank-equivalence-class analysis over compiled program tables.

In symmetric topologies most ranks of a collective schedule execute
*isomorphic* programs: the same op kinds in the same step structure,
moving payloads of the same sizes over the same link classes, with peers
that differ only by a relabeling.  The paper's headline experiments run
at 1024 nodes and beyond, where simulating every rank individually is
the cost that keeps the acceptance grid small; grouping ranks into
equivalence classes and simulating one representative per class makes
the discrete-event cost track the *class count* instead of ``p``.

This module computes that partition by classic partition refinement,
as a handful of whole-table passes over the schedule's flat columns
(:attr:`~repro.compile.program.CompiledSchedule.columns`) — no NumPy
call per rank:

1. **Base signature** — everything about a rank's program that is
   invariant under peer relabeling: op kinds, raw step boundaries, the
   per-op payload shape ``(block count, large-block count)`` under the
   MPICH block partition (two ops carry equal byte counts for a given
   total iff these agree), the per-op link class on the target machine
   (intra / inter / group-crossing), and the per-op *matched counterpart
   op index* — the position, in the peer's program, of the send/recv
   this op pairs with, read from the schedule's one FIFO matching
   (:meth:`~repro.compile.program.CompiledSchedule.messages`).  Each is
   one pass over all ops, packed into one per-op record table; a rank's
   key is its byte slice of that table plus its slice of ``steps_raw``.
2. **Refinement** — re-split every class on the class labels of each
   op's peers (one gather over all ops per round), iterated to a
   fixpoint.  Including the counterpart op index in the base signature
   makes the fixpoint strong enough that, for every class ``A`` and send
   op ``j``, the op-``j`` peers of ``A``'s members form exactly one class
   ``B`` with ``|B| = |A|`` and a 1:1 sender→receiver correspondence —
   the bijection the collapsed core needs to redirect one
   representative transfer per (class, op) pair.
   :func:`classify` verifies this invariant explicitly, in one pass over
   all sends, and raises :class:`~repro.errors.ClassAnalysisError` at the
   first (class, op) that violates it.

The partition depends on the total byte count only through
``nbytes % nblocks`` (which blocks land in the one-byte-larger prefix of
the MPICH partition), so cached partitions are keyed by that residue,
the source schedule's fingerprint, and the machine's link profile — see
:func:`partition_key` and :func:`repro.compile.cache.get_or_classify`,
which caches them in process only.  The class plan — the
:class:`~repro.core.schedule.SimPlan` over the class representatives
that :func:`repro.simnet.simulate.simulate` runs, made by the same
:func:`~repro.core.schedule.build_sim_plan` as the per-rank plan —
is built from the partition the first time it is read: a caller that
only counts classes (``engine="auto"`` refusing a degenerate partition)
never builds one.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..core.schedule import SimPlan, build_sim_plan
from ..errors import ClassAnalysisError
from ..simnet.machine import LINK_GLOBAL, LINK_INTER, LINK_INTRA, MachineSpec
from .program import OP_COPY, OP_SEND, CompiledSchedule

__all__ = [
    "LINK_INTRA",
    "LINK_INTER",
    "LINK_GLOBAL",
    "RankClasses",
    "classify",
    "link_profile",
    "partition_key",
    "machine_asymmetry",
]


def machine_asymmetry(machine: MachineSpec) -> Optional[str]:
    """Why ``machine`` cannot host a class-collapsed simulation, or None.

    The collapsed engine simulates one representative rank per class with
    *private* port/compute resources, which is exact only when the real
    machine shares no resource between ranks: one rank per node (no
    shared intranode fabric) and no dragonfly global-channel pools
    (per-group egress/ingress are shared across the whole group).  A
    dragonfly *latency* layer without channel pools is fine — the
    ``alpha_global`` adder is per-message and captured by the per-op
    link class.
    """
    if machine.ppn != 1:
        return f"ppn={machine.ppn} shares intranode resources across ranks"
    df = machine.dragonfly
    if df is not None and df.global_channels is not None:
        return "dragonfly global channels are shared across ranks"
    return None


def link_profile(machine: MachineSpec) -> Tuple[int, int]:
    """The part of a machine that determines per-op link classes.

    With one rank per node (the only geometry the collapsed engine
    accepts — see :func:`machine_asymmetry`), a rank's node is the rank
    itself under either placement, so link classes depend only on the
    node count and the dragonfly group size (0 when no dragonfly layer).
    Used as a partition cache-key component.
    """
    df = machine.dragonfly
    return (machine.nodes, df.nodes_per_group if df is not None else 0)


def partition_key(
    compiled: CompiledSchedule, machine: MachineSpec, nbytes: int
) -> Tuple[str, Tuple[int, int], int]:
    """Cache key under which a schedule's partition is stable.

    The partition reads the compiled tables, the machine's link profile,
    and the *shape* of the byte partition — which depends on ``nbytes``
    only through ``nbytes % nblocks`` (the count of one-byte-larger
    blocks in the MPICH partition).  Two simulations differing only in
    total bytes with the same residue share a partition.  The tables
    are their schedule's columns (DESIGN.md §14; an artifact loaded from
    bytes is checked against its schedule before use), so the source
    fingerprint — already computed as the compiled-cache key — names
    them, and nothing here hashes the tables again.
    """
    return (
        compiled.source_fingerprint,
        link_profile(machine),
        nbytes % compiled.nblocks,
    )


class RankClasses:
    """The rank partition of one compiled schedule on one machine.

    ``labels[r]`` is the dense class id of rank ``r``; class ids are
    ordered by representative (lowest member) rank, so ``labels[0] ==
    0``, and ``sizes[c]`` is class ``c``'s member count.  :attr:`plan`
    is the *class plan*, the table the collapsed core simulates.  It is
    passed ready, or as a function that builds it the first time
    :attr:`plan` is read (the result is kept); counting classes reads
    only ``sizes``.
    """

    def __init__(
        self,
        nranks: int,
        nblocks: int,
        residue: int,
        labels: np.ndarray,
        sizes: np.ndarray,
        plan: Union[SimPlan, Callable[[], SimPlan]],
    ) -> None:
        self.nranks = nranks
        self.nblocks = nblocks
        self.residue = residue  # nbytes % nblocks the partition was built for
        self.labels = labels    # int32 [nranks]
        self.sizes = sizes      # int64 [nclasses]
        self._plan = plan

    @property
    def plan(self) -> SimPlan:
        """A :class:`~repro.core.schedule.SimPlan` whose actors are the
        class representatives in class order: message ``i`` is the
        ``i``-th representative send (class order, then program order),
        delivered to its counterpart receive in the receiver class's
        representative, with the link class of the real message."""
        plan = self._plan
        if callable(plan):
            self._plan = plan = plan()
        return plan

    @property
    def nclasses(self) -> int:
        """Number of equivalence classes."""
        return len(self.sizes)

    @property
    def reps(self) -> Tuple[int, ...]:
        """Representative (lowest) rank of each class, in class order."""
        return tuple(np.unique(self.labels, return_index=True)[1].tolist())

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"{self.nclasses} class(es) over {self.nranks} rank(s), "
            f"largest {int(self.sizes.max())}"
        )


def _counterparts(compiled: CompiledSchedule, rank: np.ndarray) -> np.ndarray:
    """Per op: the index of its FIFO-matched op in the peer's program
    (``-1`` for copies).  Unmatched traffic raises
    :class:`~repro.errors.ClassAnalysisError`: the collapsed engine
    trusts this map."""
    cols, fifo, p = compiled.columns, compiled.messages(), compiled.nranks
    lone = np.concatenate((fifo.unmatched_sends, fifo.unmatched_recvs))
    if len(lone):
        is_send = cols.kinds == OP_SEND
        peers = cols.peers.astype(np.int64)
        chan = np.where(is_send, rank * p + peers, peers * p + rank)
        first = chan[lone.min()]
        on = (cols.kinds != OP_COPY) & (chan == first)
        nsend = int((on & is_send).sum())
        raise ClassAnalysisError(
            f"channel {divmod(int(first), p)}: "
            + (f"{nsend} send(s) vs {int(on.sum()) - nsend} receive(s)"
               if nsend else "receive with no send")
        )
    start = cols.op_ptr[rank]
    cops = np.full(len(cols.kinds), -1, dtype=np.int32)
    cops[fifo.send_op] = fifo.recv_op - start[fifo.recv_op]
    cops[fifo.recv_op] = fifo.send_op - start[fifo.send_op]
    return cops


def classify(
    compiled: CompiledSchedule, machine: MachineSpec, nbytes: int
) -> RankClasses:
    """Partition the schedule's ranks into timing-equivalence classes.

    See the module docstring for the algorithm.  The machine must pass
    :func:`machine_asymmetry` (one rank per node, no shared global
    channel pools); violations raise
    :class:`~repro.errors.ClassAnalysisError`, as does any schedule whose
    computed partition breaks the class↔class bijection invariant.

    >>> from repro.compile import compile_schedule
    >>> from repro.core.registry import build_schedule
    >>> from repro.simnet.machines import reference
    >>> c = classify(compile_schedule(build_schedule("allgather", "ring", 8)),
    ...              reference(8), 1024)
    >>> c.nclasses, c.labels.tolist()
    (1, [0, 0, 0, 0, 0, 0, 0, 0])
    """
    reason = machine_asymmetry(machine)
    if reason is not None:
        raise ClassAnalysisError(f"{machine.name}: {reason}")
    if machine.nranks != compiled.nranks:
        raise ClassAnalysisError(
            f"{machine.name} hosts {machine.nranks} ranks but the "
            f"schedule needs {compiled.nranks}"
        )
    p, cols = compiled.nranks, compiled.columns
    extra = nbytes % compiled.nblocks
    _, npg = link_profile(machine)
    kinds, peers, bounds = cols.kinds, cols.peers, cols.seg_bounds
    op_ptr = cols.op_ptr
    rank = cols.ranks()
    ops, steps = op_ptr.tolist(), cols.step_ptr.tolist()

    # Base signature, one pass per input over every op: payload shape
    # (blocks, and how many sit in the one-larger prefix), link class
    # (rank == node, so every message is internode; copies -1) and
    # counterpart op, packed into one record per op.
    large = np.concatenate(([0], np.cumsum(cols.seg_blocks < extra)))
    nblk = np.diff(bounds).astype(np.int32)
    nlarge = (large[bounds[1:]] - large[bounds[:-1]]).astype(np.int32)
    link = np.full(len(kinds), LINK_INTER, dtype=np.int8)
    if npg:
        link[peers // npg != rank // npg] = LINK_GLOBAL
    link[kinds == OP_COPY] = -1
    cops = _counterparts(compiled, rank)
    record = np.stack((kinds, nblk, nlarge, link, cops), axis=1).astype("<i4")
    labels = _dense_labels(zip(
        _cut(record.tobytes(), ops, 20),
        _cut(cols.steps_raw.tobytes(), steps, 4),
    ))

    # Refinement: split on peer class labels until stable, or until
    # every rank is its own class — no round splits a singleton, and
    # first-occurrence ids reach p - 1 only when all p are distinct.
    # Copies carry peer -1, which gathers the sentinel label -1 past
    # the class space.
    by_rank = np.full(p + 1, -1, dtype=np.int32)
    for _ in range(p):
        if labels[-1] == p - 1:
            break
        by_rank[:p] = labels
        new_labels = _dense_labels(zip(
            labels.tolist(), _cut(by_rank[peers].tobytes(), ops, 4)
        ))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    counts = np.bincount(labels)
    reps = np.unique(labels, return_index=True)[1]

    # Bijection check over every send at once.  A (class, op) pair is
    # named by its representative's op, ``lead``: lead order is (class,
    # op) order, so the first flagged lead is the first violation.
    sends = np.flatnonzero(kinds == OP_SEND)
    src = labels[rank[sends]]
    lead = op_ptr[reps[src]] + sends - op_ptr[rank[sends]]
    dst = labels[peers[lead]]
    split = np.zeros(len(kinds), dtype=bool)
    split[lead[labels[peers[sends]] != dst]] = True
    pairs = np.sort(lead * p + peers[sends])
    uneven = np.zeros(len(kinds), dtype=bool)
    uneven[pairs[1:][pairs[1:] == pairs[:-1]] // p] = True
    uneven[lead[counts[dst] != counts[src]]] = True
    bad = np.flatnonzero(split | uneven)
    if len(bad):
        g = int(bad[0])
        c, j = int(labels[rank[g]]), g - ops[rank[g]]
        if split[g]:
            raise ClassAnalysisError(
                f"class {c} op {j}: peers span multiple classes"
            )
        tc = int(labels[peers[g]])
        raise ClassAnalysisError(
            f"class {c} op {j}: sends to class {tc} are not 1:1 "
            f"({int(counts[c])} sender(s), {int(counts[tc])} receiver(s))"
        )

    def plan() -> SimPlan:
        # The representatives' programs; each representative send goes
        # to its counterpart op in the receiver class's representative.
        actors = cols.take(reps)
        mine = lead == sends
        at = sends[mine]
        return build_sim_plan(
            actors,
            actors.op_ptr[dst[mine]] + cops[at],
            compiled.messages().seq[at],
            link[at],
        )

    return RankClasses(
        nranks=p,
        nblocks=compiled.nblocks,
        residue=extra,
        labels=labels,
        sizes=counts,
        plan=plan,
    )


def _cut(table: bytes, ptr: Sequence[int], width: int) -> List[bytes]:
    """Per rank, its slice of a per-op (or per-step) byte table."""
    return [table[a * width:b * width] for a, b in zip(ptr, ptr[1:])]


def _dense_labels(keys: Iterable) -> np.ndarray:
    """Dense class ids in order of first occurrence (rep = lowest rank)."""
    table: Dict = {}
    return np.array(
        [table.setdefault(key, len(table)) for key in keys], dtype=np.int32
    )
