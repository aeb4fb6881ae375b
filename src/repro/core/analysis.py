"""Model-free structural analysis of schedules.

Where :mod:`repro.models` prices algorithms with (α, β, γ) constants and
:mod:`repro.simnet` with full hardware detail, this module extracts the
two *machine-independent* quantities every such cost decomposes over:

* :func:`critical_path_rounds` — the longest dependency chain of
  messages (the coefficient of α in any model: no machine can finish the
  collective in fewer sequential message latencies);
* :func:`critical_path_bytes` — the largest amount of data any single
  dependency chain must move (a lower bound on the β coefficient).

Both are computed by running the schedule on degenerate single-feature
machines (α = 1, β = 0 and α = 0, β = 1 with a single serializing port),
reusing the simulator as the dependency-graph evaluator, so the analysis
can never disagree with the execution semantics.

These are the numbers the paper's models print as ``log_k(p)`` and
``(k-1)·n·log_k(p)`` — here measured from the schedule itself, which is
how the test suite pins each algorithm's structure against its model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import ScheduleError
from ..simnet.machine import MachineSpec
from ..simnet.simulate import simulate
from .schedule import OP_SEND, Schedule, step_levels, step_rounds

__all__ = [
    "critical_path_rounds",
    "critical_path_bytes",
    "dependency_rounds",
    "volume_profile",
    "VolumeProfile",
]


def _degenerate_machine(p: int, *, alpha: float, beta: float) -> MachineSpec:
    return MachineSpec(
        name=f"analysis-{p}",
        nodes=max(p, 1),
        ppn=1,
        alpha_inter=alpha,
        beta_inter=beta,
        nic_ports=1,
        alpha_intra=alpha,
        beta_intra=beta,
    )


def critical_path_rounds(schedule: Schedule) -> int:
    """Length of the longest message dependency chain.

    Equals the α coefficient of the schedule's ideal cost: e.g. a
    k-nomial bcast on ``k^m`` ranks yields ``m``; a ring allgather yields
    ``p - 1``.

    >>> from repro.core.knomial import knomial_bcast
    >>> critical_path_rounds(knomial_bcast(27, 3))
    3
    """
    if schedule.nranks == 1:
        return 0
    machine = _degenerate_machine(schedule.nranks, alpha=1.0, beta=0.0)
    # With β = 0 and zero overheads, every message costs exactly one time
    # unit and unrelated messages overlap freely: the makespan *is* the
    # longest chain.
    return round(simulate(schedule, machine, 0).time)


def critical_path_bytes(schedule: Schedule, nbytes: int) -> int:
    """Serialized data volume on the heaviest single-port path.

    Run with α = 0 and β = 1 per byte on single-port nodes: the makespan
    is the number of bytes the most-loaded serialization chain moves —
    the β coefficient of the single-port models (e.g. ``(k-1)·n·log_k p``
    for a k-nomial bcast).
    """
    if nbytes < 0:
        raise ScheduleError(f"nbytes must be >= 0, got {nbytes}")
    if schedule.nranks == 1:
        return 0
    machine = _degenerate_machine(schedule.nranks, alpha=0.0, beta=1.0)
    return round(simulate(schedule, machine, nbytes).time)


def dependency_rounds(schedule: Schedule) -> int:
    """Longest message dependency chain, computed without the simulator.

    The purely static counterpart of :func:`critical_path_rounds`: a
    longest-path pass over the message DAG (each message is one edge of
    unit depth, each step completes at the max of its predecessor step
    and its incoming messages), evaluated in the order of the schedule's
    eager step walk (:func:`~repro.core.schedule.step_rounds`).
    The two agree on every executable schedule — the property test suite
    pins that — but this one is usable from static analysis contexts
    (:mod:`repro.check`) that must not spin up the DES engine.

    Raises :class:`~repro.errors.ScheduleError` on schedules that cannot
    complete under eager semantics (run the deadlock check first).

    >>> from repro.core.knomial import knomial_bcast
    >>> dependency_rounds(knomial_bcast(27, 3))
    3
    """
    p = schedule.nranks
    if p == 1:
        return 0

    # Orphan sends wait on nothing; a starved receive can never complete.
    cols, fifo = schedule.columns(), schedule.messages()
    op_rank = cols.ranks()
    lone = fifo.unmatched_recvs
    if len(lone):
        # A channel's receives are one rank's, in order: its first
        # starved receive's running index counts the channel's sends.
        i = lone.min()
        nsend = int(fifo.seq[i])
        peers = cols.peers
        same = (peers[lone] == peers[i]) & (op_rank[lone] == op_rank[i])
        raise ScheduleError(
            f"{schedule.describe()}: channel "
            f"{(int(peers[i]), int(op_rank[i]))} has "
            f"{nsend + int(same.sum())} recvs but only {nsend} sends"
        )
    done = step_rounds(cols, fifo)
    nsteps = np.diff(cols.step_ptr) - 1
    if (done < 0).any():
        stuck = np.unique(np.repeat(np.arange(p), nsteps)[done < 0])
        raise ScheduleError(
            f"{schedule.describe()}: schedule cannot complete under eager "
            f"semantics (ranks {stuck.tolist()} stuck) — run repro.check's "
            f"deadlock pass for the diagnosis"
        )

    # depth[g] = depth once step g completes.  A message starts once
    # BOTH endpoints have posted (the simulator's transfer rule:
    # rendezvous timing, eager completion) and flies for one unit, so a
    # step with receives ends one unit after the later of its own
    # previous step and its senders' previous steps; a step without
    # ends with its previous step.  All of those completed in earlier
    # rounds of the walk, so one max-plus pass, round by round,
    # evaluates the recurrence.  ``prev`` is −1 for a rank's first step:
    # the extra last entry of ``depth``, 0, is "before the program".
    prev = np.arange(len(done)) - 1
    prev[(cols.step_ptr[:-1] - np.arange(p))[nsteps > 0]] = -1
    gstep = cols.step_of()
    into, after = gstep[fifo.recv_op], prev[gstep[fifo.send_op]]
    depth = np.zeros(len(done) + 1, dtype=np.int64)
    receives = np.zeros(len(done), dtype=np.int64)
    receives[into] = 1
    for these, incoming in step_levels(done, into):
        depth[these] = depth[prev[these]]
        np.maximum.at(depth, into[incoming], depth[after[incoming]])
        depth[these] += receives[these]
    return int(depth.max())


@dataclass(frozen=True)
class VolumeProfile:
    """Per-rank traffic totals for one schedule at one buffer size."""

    sent_bytes: Dict[int, int]
    received_bytes: Dict[int, int]
    messages_sent: Dict[int, int]

    @property
    def total_bytes(self) -> int:
        return sum(self.sent_bytes.values())

    @property
    def max_rank_sent(self) -> int:
        return max(self.sent_bytes.values(), default=0)

    @property
    def max_rank_received(self) -> int:
        return max(self.received_bytes.values(), default=0)


def volume_profile(schedule: Schedule, nbytes: int) -> VolumeProfile:
    """Static per-rank send/receive accounting (no simulation), read off
    the columns."""
    cols, p = schedule.columns(), schedule.nranks
    sizes = np.asarray(schedule.block_map(nbytes).sizes, dtype=np.int64)
    sends = np.flatnonzero(cols.kinds == OP_SEND)
    size = cols.op_sizes(sizes)[sends]
    src, dst = cols.ranks()[sends], cols.peers[sends]
    sent = np.zeros(p, dtype=np.int64)
    received = np.zeros(p, dtype=np.int64)
    np.add.at(sent, src, size)
    np.add.at(received, dst, size)
    return VolumeProfile(
        sent_bytes=dict(enumerate(sent.tolist())),
        received_bytes=dict(enumerate(received.tolist())),
        messages_sent=dict(
            enumerate(np.bincount(src, minlength=p).tolist())
        ),
    )
