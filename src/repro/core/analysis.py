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
from typing import Dict, List

from ..errors import ScheduleError
from ..simnet.machine import MachineSpec
from ..simnet.simulate import simulate
from .schedule import Schedule, SendOp

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
    longest-path walk over the message DAG (each message is one edge of
    unit depth, each step completes at the max of its predecessor step
    and its incoming messages), evaluated in eager completion order.
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
    programs = schedule.programs
    if p == 1:
        return 0

    # Per (rank, step): the (rank, step) of the send each of its
    # receives matches.  Orphan sends wait on nothing; a starved
    # receive can never complete.
    cols, fifo = schedule.columns(), schedule.messages()
    op_rank, (op_step, _) = cols.ranks(), cols.steps()
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
    send, recv = fifo.send_op, fifo.recv_op
    deps: List[List[list]] = [[[] for _ in prog.steps] for prog in programs]
    for r, r_step, s, s_step in zip(
        op_rank[recv].tolist(), op_step[recv].tolist(),
        op_rank[send].tolist(), op_step[send].tolist(),
    ):
        deps[r][r_step].append((s, s_step))

    # done[r][j] = depth after rank r completes step j.  A message
    # starts once BOTH endpoints have posted (the simulator's transfer
    # rule: rendezvous timing, eager completion) and flies for one unit:
    # arrival = max(sender entered its step, receiver entered its step)
    # + 1.  Evaluate in the eager fixpoint order, which is a topological
    # order of the step DAG.
    done = [[0] * len(programs[r].steps) for r in range(p)]
    pc = [0] * p
    lengths = [len(programs[r].steps) for r in range(p)]
    remaining = sum(1 for r in range(p) if lengths[r])
    changed = True
    while remaining and changed:
        changed = False
        for rank in range(p):
            while pc[rank] < lengths[rank]:
                step_idx = pc[rank]
                start = done[rank][step_idx - 1] if step_idx else 0
                depth = start
                ready = True
                for src_rank, src_step in deps[rank][step_idx]:
                    if pc[src_rank] < src_step:
                        ready = False
                        break
                    posted_at = done[src_rank][src_step - 1] if src_step else 0
                    depth = max(depth, max(posted_at, start) + 1)
                if not ready:
                    break
                done[rank][step_idx] = depth
                pc[rank] += 1
                changed = True
                if pc[rank] == lengths[rank]:
                    remaining -= 1
    if remaining:
        raise ScheduleError(
            f"{schedule.describe()}: schedule cannot complete under eager "
            f"semantics (ranks {[r for r in range(p) if pc[r] < lengths[r]]} "
            f"stuck) — run repro.check's deadlock pass for the diagnosis"
        )
    return max((row[-1] for row in done if row), default=0)


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
    """Static per-rank send/receive accounting (no simulation)."""
    blocks = schedule.block_map(nbytes)
    sent: Dict[int, int] = {r: 0 for r in range(schedule.nranks)}
    received: Dict[int, int] = {r: 0 for r in range(schedule.nranks)}
    msgs: Dict[int, int] = {r: 0 for r in range(schedule.nranks)}
    for prog in schedule.programs:
        for _, op in prog.iter_ops():
            if isinstance(op, SendOp):
                size = blocks.bytes_of(op.blocks)
                sent[prog.rank] += size
                msgs[prog.rank] += 1
                received[op.peer] += size
    return VolumeProfile(
        sent_bytes=sent, received_bytes=received, messages_sent=msgs
    )
