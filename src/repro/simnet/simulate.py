"""Simulate a collective schedule on a modeled machine.

Maps the schedule IR onto the DES engine: one process per rank walks its
program paying per-op injection overhead and waiting on step completions;
one process per message waits for both endpoints to post, competes for the
link resources its path needs (NIC ports, intranode fabric channels,
dragonfly global channels), holds them for the serialization time, and
delivers after the wire latency, charging receive-side reduction compute
where applicable.

Cost recipe per message of ``n`` bytes (all terms from the
:class:`~repro.simnet.machine.MachineSpec`):

========================  ====================================================
phase                      cost
========================  ====================================================
posting (per endpoint)     ``injection_overhead`` (serial on the rank's CPU)
port/channel occupancy     ``msg_overhead + n·β`` on every pool on the path
wire latency               ``α`` (+ ``α_global`` across dragonfly groups)
reduction (reduce recvs)   ``γ·n`` serialized on the receiving rank
========================  ====================================================

Ports are held only for the *serialization* time, so latencies pipeline
across back-to-back messages — the LogGP-style decomposition that lets a
k-nomial root overlap ``k-1`` small sends (§II-B2) while still charging
``⌈(k-1)/ports⌉`` bandwidth waves for large ones.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..core.schedule import Schedule, SendOp
from ..errors import ClassAnalysisError, MachineError
from ..faults.plan import FaultPlan
from ..obs import Obs, get_obs
from ..faults.sim import analyze, match_messages
from .engine import Acquire, AllOf, Engine, Event, Resource, Timeout
from .machine import MachineSpec
from .noise import NoiseModel

__all__ = ["SimResult", "simulate", "traffic_summary", "TrafficSummary",
           "ENGINES"]

#: Valid values for ``simulate(engine=...)`` and the CLIs' ``--engine``.
ENGINES = ("auto", "materialized", "collapsed")

#: Below this rank count ``engine="auto"`` runs the materialized engine
#: even when the schedule is collapsible — class analysis overhead beats
#: the savings at small p, and small-p runs are the compatibility surface
#: the golden corpus pins.  Lazy (generator-program) schedules ignore the
#: threshold: they exist precisely to avoid materializing p structures.
_AUTO_COLLAPSE_MIN_RANKS = 256


@dataclass
class SimResult:
    """Outcome of one simulated collective."""

    time: float                      # makespan (seconds)
    rank_times: List[float]          # per-rank completion times
    messages: int                    # point-to-point messages delivered
    intra_messages: int
    inter_messages: int
    global_messages: int             # subset of inter crossing dragonfly groups
    intra_bytes: int
    inter_bytes: int
    timeline: Optional[List[Tuple]] = None  # (src, dst, bytes, t_xfer, t_done, link)
    retransmissions: int = 0         # lost transmissions recovered by retry
    failed_ranks: Tuple[int, ...] = ()   # ranks crashed by the fault plan
    stalled_ranks: Tuple[int, ...] = ()  # ranks blocked forever on a dead peer
    engine: str = "materialized"     # engine that produced this result
    fallback: Optional[str] = None   # why a collapsed request fell back
    nclasses: Optional[int] = None   # class count (collapsed engine only)

    @property
    def time_us(self) -> float:
        """Makespan in microseconds (the unit the paper plots)."""
        return self.time * 1e6

    @property
    def complete(self) -> bool:
        """Whether every rank finished (no crash / stall under faults)."""
        return not self.failed_ranks and not self.stalled_ranks


class _Msg:
    __slots__ = (
        "src",
        "dst",
        "nbytes",
        "reduce",
        "index",
        "seq",
        "send_posted",
        "recv_posted",
        "send_done",
        "recv_done",
    )

    def __init__(self, engine: Engine, src: int, dst: int, nbytes: int,
                 reduce: bool, index: int, seq: int) -> None:
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.reduce = reduce
        self.index = index
        self.seq = seq  # per-(src, dst) link FIFO sequence number
        self.send_posted = Event(engine)
        self.recv_posted = Event(engine)
        self.send_done = Event(engine)
        self.recv_done = Event(engine)


def _collapse_blockers(
    schedule,
    machine: MachineSpec,
    *,
    noise,
    faults,
    collect_timeline: bool,
    block_map,
) -> Optional[str]:
    """Why this run cannot use the collapsed engine, or ``None``.

    Any per-rank asymmetry breaks the class-equivalence argument: noise
    draws per-message factors, fault plans target individual ranks/links,
    and timelines and custom block maps need per-rank identity.
    Nonzero roots are rejected by policy — a rooted collective at
    ``root=r`` is isomorphic to ``root=0``, so rather than special-case
    the relabeling the dispatcher routes it to the materialized engine.
    """
    if noise is not None:
        return "noise model active"
    if faults is not None:
        return "fault plan present"
    if collect_timeline:
        return "timeline collection requested"
    if block_map is not None:
        return "custom block map"
    root = getattr(schedule, "root", None)
    if root not in (None, 0):
        return f"nonzero root {root}"
    from ..compile.classes import machine_asymmetry

    return machine_asymmetry(machine)


def simulate(
    schedule: Schedule,
    machine: MachineSpec,
    nbytes: int,
    *,
    noise: Optional[NoiseModel] = None,
    faults: Optional[FaultPlan] = None,
    collect_timeline: bool = False,
    block_map=None,
    engine: str = "auto",
    obs: Optional[Obs] = None,
) -> SimResult:
    """Simulate ``schedule`` moving ``nbytes`` (total buffer size) on
    ``machine``; returns the makespan and traffic accounting.

    The machine must host exactly ``schedule.nranks`` processes — build
    machines with the right ``nodes × ppn`` geometry (see
    :mod:`repro.simnet.machines`).

    With a :class:`~repro.faults.plan.FaultPlan`, messages traverse faulty
    links: each dropped transmission charges its serialization plus a
    machine-model retransmission timeout (≈ one RTT, exponentially backed
    off), duplicates charge extra serialization, degraded links slow their
    own traffic, and stragglers scale their rank's injection/reduction
    cost.  Crashed ranks — and ranks dragged down waiting on them — yield
    a clean partial-completion :class:`SimResult` (``complete`` is False,
    their ``rank_times`` are ``inf``) instead of the engine's blanket
    deadlock :class:`~repro.errors.MachineError`.

    ``obs``: observability scope (default: the process-global one).  When
    enabled, the run is wrapped in a ``simulate`` span, traffic and
    retransmission counters are recorded, and — with
    ``collect_timeline=True`` — the message timeline is attached to the
    span so :mod:`repro.obs.export` can merge simulated traffic into the
    host-side Perfetto trace.  Instrumentation never changes a simulated
    cost (pinned by ``tests/properties/test_obs_transparency.py``).

    The rank processes are fed from the cached compiled program's
    preflattened ``(is_send, peer)`` step feed
    (:meth:`repro.compile.program.CompiledSchedule.sim_feed`): raw step
    boundaries, IR op order, copies dropped (modeled as free — an
    intra-GPU memcpy is off the critical path at collective
    granularity).  The differential suite pins the feed equal to the
    IR's op stream on the whole registry grid.

    ``engine`` selects the simulation core.  ``"materialized"`` is the
    classic one-process-per-rank engine described above;
    ``"collapsed"`` simulates one representative per rank-equivalence
    class (:mod:`repro.simnet.collapsed`) and fans results back out —
    bit-identical on symmetric inputs, sublinear in ``p``; ``"auto"``
    (the default) picks collapsed when the run is symmetric (no noise,
    faults, timeline, custom block map, or nonzero root; an eligible
    machine) and large enough to profit, materialized otherwise.  An
    explicit ``engine="collapsed"`` request on an asymmetric run does not
    fail: it falls back to the materialized engine and records why in
    ``SimResult.fallback``.  ``machine`` may also be a registry name
    (e.g. ``"dragonfly-1024"``) — resolved via
    :func:`repro.simnet.machines.get`.

    Lazy generator schedules (:mod:`repro.core.lazy`, marked
    ``is_lazy``) are classified directly without materializing per-rank
    step lists; when such a schedule must take the materialized path it
    is first expanded via its ``materialize()`` hook.
    """
    if isinstance(machine, str):
        from .machines import get as _get_machine

        machine = _get_machine(machine)
    if engine not in ENGINES:
        raise MachineError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    p = schedule.nranks
    if machine.nranks != p:
        raise MachineError(
            f"{machine.name} hosts {machine.nranks} ranks but schedule "
            f"{schedule.describe()} needs {p}"
        )
    if nbytes < 0:
        raise MachineError(f"nbytes must be >= 0, got {nbytes}")
    if block_map is not None and block_map.nblocks != schedule.nblocks:
        raise MachineError(
            f"block map has {block_map.nblocks} blocks but the "
            f"schedule uses {schedule.nblocks}"
        )

    # ------------------------------------------------------------------
    # Engine dispatch: try the class-collapsed core when requested and
    # eligible; fall back to the materialized engine below, recording why.
    # ------------------------------------------------------------------
    lazy = getattr(schedule, "is_lazy", False)
    fallback: Optional[str] = None
    if engine in ("auto", "collapsed"):
        reason = _collapse_blockers(
            schedule,
            machine,
            noise=noise,
            faults=faults,
            collect_timeline=collect_timeline,
            block_map=block_map,
        )
        attempt = reason is None
        if attempt and engine == "auto" and not lazy and (
            p < _AUTO_COLLAPSE_MIN_RANKS
        ):
            attempt = False  # policy choice at small p, not a fallback
        elif reason is not None and engine == "collapsed":
            fallback = reason
        if attempt:
            from .collapsed import simulate_collapsed

            try:
                if lazy:
                    classes = schedule.classes(machine, nbytes)
                else:
                    from ..compile.cache import get_or_classify

                    classes = get_or_classify(schedule, machine, nbytes)
                # Auto policy: when the partition is degenerate (every
                # rank its own class — butterfly exchanges whose partner
                # *order* is rank-dependent), the collapsed core would
                # just re-enact the materialized run with extra batching
                # overhead.  Simulation cost should track class count,
                # so a partition that doesn't collapse isn't worth the
                # detour.  An explicit engine="collapsed" request still
                # runs it (the caller asked for that core, and results
                # are bit-identical either way).
                if engine == "collapsed" or classes.nclasses < p:
                    return simulate_collapsed(
                        classes,
                        machine,
                        nbytes,
                        schedule_desc=schedule.describe(),
                        obs=obs,
                    )
            except ClassAnalysisError as exc:
                fallback = str(exc)

    if lazy:
        schedule = schedule.materialize()
    if block_map is None:
        blocks = schedule.block_map(nbytes)
    else:
        blocks = block_map
    scope = get_obs(obs)
    engine = Engine(obs=scope)
    df = machine.dragonfly

    send_ports = [
        Resource(engine, machine.nic_ports, f"sendport[{n}]")
        for n in range(machine.nodes)
    ]
    recv_ports = [
        Resource(engine, machine.nic_ports, f"recvport[{n}]")
        for n in range(machine.nodes)
    ]
    intra_fabric: Optional[List[Resource]] = None
    if machine.intra_kind == "shared" and machine.ppn > 1:
        intra_fabric = [
            Resource(engine, machine.intra_channels, f"fabric[{n}]")
            for n in range(machine.nodes)
        ]
    compute = [Resource(engine, 1, f"compute[{r}]") for r in range(p)]
    egress: Optional[List[Resource]] = None
    ingress: Optional[List[Resource]] = None
    if df is not None and df.global_channels is not None:
        ngroups = machine.nodes // df.nodes_per_group
        egress = [
            Resource(engine, df.global_channels, f"egress[{g}]")
            for g in range(ngroups)
        ]
        ingress = [
            Resource(engine, df.global_channels, f"ingress[{g}]")
            for g in range(ngroups)
        ]

    # ------------------------------------------------------------------
    # Match sends and receives into messages (FIFO per channel), mirroring
    # the data executors' matching exactly.  The structural matching lives
    # in repro.faults.sim.match_messages so the static fault analysis and
    # the recovery layer's simulated failure detector see the same
    # messages this engine exchanges.
    # ------------------------------------------------------------------
    metas = match_messages(schedule)
    send_q: Dict[Tuple[int, int], Deque[_Msg]] = {}
    recv_q: Dict[Tuple[int, int], Deque[_Msg]] = {}
    messages: List[_Msg] = []
    for meta in metas:
        msg = _Msg(
            engine,
            src=meta.src,
            dst=meta.dst,
            nbytes=blocks.bytes_of(meta.blocks),
            reduce=meta.reduce,
            index=meta.index,
            seq=meta.seq,
        )
        messages.append(msg)
        send_q.setdefault((meta.src, meta.dst), deque()).append(msg)
        recv_q.setdefault((meta.src, meta.dst), deque()).append(msg)

    # ------------------------------------------------------------------
    # Fault plan: pre-compute the fate of messages and ranks (decisions
    # are deterministic, so fate is static even though costs are dynamic).
    # ------------------------------------------------------------------
    faults_active = faults is not None and faults.is_active
    statics = analyze(schedule, faults, metas) if faults_active else None
    lossy = faults_active and faults.has_loss

    # ------------------------------------------------------------------
    # Traffic accounting and optional timeline
    # ------------------------------------------------------------------
    stats = {
        "intra_messages": 0,
        "inter_messages": 0,
        "global_messages": 0,
        "intra_bytes": 0,
        "inter_bytes": 0,
        "retransmissions": 0,
    }
    timeline: Optional[List[Tuple]] = [] if collect_timeline else None
    rank_times = [0.0] * p

    o = machine.injection_overhead

    from ..compile import get_or_compile

    feed = get_or_compile(schedule).sim_feed()

    def rank_proc(rank: int):
        rank_feed = feed[rank]
        straggle = faults.straggler_factor(rank) if faults_active else 1.0
        o_r = o * straggle
        limit = statics.post_limit[rank] if statics else len(rank_feed)
        for step_idx in range(limit):
            waits: List[Event] = []
            for is_send, peer in rank_feed[step_idx]:
                if o_r:
                    yield Timeout(o_r)
                if is_send:
                    msg = send_q[(rank, peer)].popleft()
                    msg.send_posted.trigger()
                    done = msg.send_done
                else:
                    msg = recv_q[(peer, rank)].popleft()
                    msg.recv_posted.trigger()
                    done = msg.recv_done
                # Doomed messages never complete; a stalled rank posts
                # its final step's ops but waits only on the live ones
                # (its blocked-forever state is recorded statically).
                if statics is None or msg.index not in statics.doomed:
                    waits.append(done)
            if waits:
                yield AllOf(waits)
        if statics is not None and not statics.completes(
            rank, len(rank_feed)
        ):
            rank_times[rank] = math.inf
        else:
            rank_times[rank] = engine.now

    def transfer_proc(msg: _Msg):
        if statics is not None and msg.index in statics.doomed:
            return
        yield AllOf([msg.send_posted, msg.recv_posted])
        factor = noise.factor(msg.index) if noise is not None else 1.0
        if faults_active:
            factor *= faults.bandwidth_penalty(msg.src, msg.dst)
            fdelay = faults.delay(msg.src, msg.dst, msg.seq)
            dups = faults.duplicates(msg.src, msg.dst, msg.seq)
            attempts = (
                faults.attempts_needed(msg.src, msg.dst, msg.seq)
                if lossy
                else 0
            )
        else:
            fdelay = 1.0
            dups = 0
            attempts = 0
        src_node = machine.node_of(msg.src)
        dst_node = machine.node_of(msg.dst)
        held: List[Resource] = []
        if src_node == dst_node:
            link = "intra"
            stats["intra_messages"] += 1
            stats["intra_bytes"] += msg.nbytes
            hold = (
                machine.intra_msg_overhead + msg.nbytes * machine.beta_intra
            ) * factor
            if intra_fabric is not None:
                held = [intra_fabric[src_node]]
            alpha = machine.alpha_intra * factor
        else:
            crossing = machine.crosses_groups(msg.src, msg.dst)
            link = "global" if crossing else "inter"
            stats["inter_messages"] += 1
            stats["inter_bytes"] += msg.nbytes
            if crossing:
                stats["global_messages"] += 1
            hold = (
                machine.port_msg_overhead + msg.nbytes * machine.beta_inter
            ) * factor
            # Fixed global acquisition order prevents hold-and-wait cycles.
            held = [send_ports[src_node], recv_ports[dst_node]]
            if crossing and egress is not None and ingress is not None:
                g_src = machine.group_of(src_node)
                g_dst = machine.group_of(dst_node)
                held += [egress[g_src], ingress[g_dst]]
            alpha = machine.alpha_inter * factor
            if crossing and df is not None:
                alpha += df.alpha_global * factor
        alpha *= fdelay
        if faults_active:
            # A straggler host is slow to push messages onto the wire:
            # sender-side software latency scales with its slowdown.
            alpha *= faults.straggler_factor(msg.src)
        # Lost transmissions: each charges its serialization (the bytes
        # really crossed the wire before vanishing) plus a retransmission
        # timeout derived from the machine model — one round trip plus the
        # serialization time, exponentially backed off per the plan's
        # retry policy.
        rto = 2.0 * alpha + hold
        for attempt in range(attempts):
            for res in held:
                yield Acquire(res)
            yield Timeout(hold)
            for res in reversed(held):
                res.release()
            yield Timeout(rto * faults.retry.backoff**attempt)
            stats["retransmissions"] += 1
        # The surviving transmission; duplicates ride along, charging
        # their own serialization on the same links.
        for res in held:
            yield Acquire(res)
        t0 = engine.now
        yield Timeout(hold * (1 + dups))
        for res in reversed(held):
            res.release()
        msg.send_done.trigger()
        yield Timeout(alpha)
        if msg.reduce and machine.gamma > 0 and msg.nbytes > 0:
            straggle = (
                faults.straggler_factor(msg.dst) if faults_active else 1.0
            )
            yield Acquire(compute[msg.dst])
            yield Timeout(machine.gamma * msg.nbytes * factor * straggle)
            compute[msg.dst].release()
        if timeline is not None:
            timeline.append((msg.src, msg.dst, msg.nbytes, t0, engine.now, link))
        msg.recv_done.trigger()

    for msg in messages:
        engine.process(transfer_proc(msg), name=f"xfer{msg.index}")
    for rank in range(p):
        engine.process(rank_proc(rank), name=f"rank{rank}")

    if scope.enabled:
        with scope.span(
            "simulate",
            schedule=schedule.describe(),
            machine=machine.name,
            nbytes=nbytes,
        ):
            makespan = engine.run()
            m = scope.metrics
            m.counter("repro_sim_runs_total").inc()
            for link, count in (
                ("intra", stats["intra_messages"]),
                ("inter", stats["inter_messages"] - stats["global_messages"]),
                ("global", stats["global_messages"]),
            ):
                if count:
                    m.counter(
                        "repro_sim_messages_total", link=link
                    ).inc(count)
            if stats["retransmissions"]:
                m.counter("repro_faults_sim_retransmissions_total").inc(
                    stats["retransmissions"]
                )
            if timeline is not None:
                scope.tracer.attach_timeline(
                    timeline,
                    label=f"{schedule.describe()} n={nbytes}",
                    makespan=makespan,
                )
    else:
        makespan = engine.run()
    failed_ranks: Tuple[int, ...] = ()
    stalled_ranks: Tuple[int, ...] = ()
    if statics is not None:
        failed_ranks = tuple(sorted(statics.crashed))
        stalled_ranks = tuple(sorted(statics.stall_step))
    return SimResult(
        time=makespan,
        rank_times=rank_times,
        messages=len(messages),
        intra_messages=stats["intra_messages"],
        inter_messages=stats["inter_messages"],
        global_messages=stats["global_messages"],
        intra_bytes=stats["intra_bytes"],
        inter_bytes=stats["inter_bytes"],
        timeline=timeline,
        retransmissions=stats["retransmissions"],
        failed_ranks=failed_ranks,
        stalled_ranks=stalled_ranks,
        engine="materialized",
        fallback=fallback,
    )


@dataclass(frozen=True)
class TrafficSummary:
    """Static traffic analysis of a schedule on a machine (no simulation).

    Used by the data-volume benches that reproduce paper eqs. (13)/(14):
    k-ring's inter-group traffic reduction.
    """

    messages: int
    intra_messages: int
    inter_messages: int
    intra_bytes: int
    inter_bytes: int


def traffic_summary(
    schedule: Schedule, machine: MachineSpec, nbytes: int
) -> TrafficSummary:
    """Count messages/bytes by link class without running the simulator."""
    if machine.nranks != schedule.nranks:
        raise MachineError(
            f"{machine.name} hosts {machine.nranks} ranks but schedule "
            f"needs {schedule.nranks}"
        )
    blocks = schedule.block_map(nbytes)
    msgs = intra_m = inter_m = intra_b = inter_b = 0
    for prog in schedule.programs:
        for _, op in prog.iter_ops():
            if isinstance(op, SendOp):
                msgs += 1
                size = blocks.bytes_of(op.blocks)
                if machine.same_node(prog.rank, op.peer):
                    intra_m += 1
                    intra_b += size
                else:
                    inter_m += 1
                    inter_b += size
    return TrafficSummary(
        messages=msgs,
        intra_messages=intra_m,
        inter_messages=inter_m,
        intra_bytes=intra_b,
        inter_bytes=inter_b,
    )
