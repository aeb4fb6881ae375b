"""Simulate a collective schedule on a modeled machine.

Builds the tables the DES kernel (:mod:`repro.simnet.kernel`) walks, in
three layers, each computed once for what it depends on: a
:class:`~repro.core.schedule.SimPlan` — the schedule's own
matched-message plan
(:meth:`~repro.core.schedule.Schedule.sim_plan`, one actor per
rank) or, where the ranks collapse into equivalence classes, the class
plan (:attr:`~repro.compile.classes.RankClasses.plan`, one actor per
class representative) — then per machine geometry the link class and
held resources of every message (:func:`_route`), and per call the byte
counts and cost columns (:func:`cost_columns`).  Both plans take the one
path below: a class plan's traffic counters weigh each message by its
sender's class size, and its actor times stay per class in the result,
fanned out over the class labels only when a caller reads
:attr:`SimResult.rank_times`.  In the kernel each actor walks its
program paying per-op injection overhead and waiting on step
completions; each message
waits for both endpoints to post, competes for the link resources its
path needs (NIC ports, intranode fabric channels, dragonfly global
channels), holds them for the serialization time, and delivers after the
wire latency, charging receive-side reduction compute where applicable.

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

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.schedule import OP_SEND, Schedule
from ..errors import ClassAnalysisError, MachineError
from ..faults.plan import FaultPlan
from ..obs import Obs, get_obs
from ..faults.sim import FaultStatics, analyze, match_messages
from ..names import ENGINES
from . import kernel
from .machine import (
    LINK_GLOBAL,
    LINK_INTER,
    LINK_INTRA,
    LINK_NAMES,
    MachineSpec,
)
from .noise import NoiseModel

__all__ = ["SimResult", "simulate", "traffic_summary", "TrafficSummary",
           "ENGINES"]

#: Why a run ``simulate()`` considered collapsing ran materialized: the
#: ``reason`` label of ``repro_engine_fallbacks_total``.  The first five
#: are per-rank asymmetries of the run, ``machine`` a machine that
#: shares resources between ranks, ``class_analysis`` a refused
#: partition, ``small_p`` and ``degenerate`` the ``auto`` policy.
FALLBACK_REASONS = ("noise", "faults", "timeline", "block_map", "root",
                    "machine", "class_analysis", "small_p", "degenerate")

#: Below this rank count ``engine="auto"`` runs the materialized engine
#: even when the schedule is collapsible — class analysis overhead beats
#: the savings at small p, and small-p runs are the compatibility surface
#: the golden corpus pins.  Lazy (generator-program) schedules ignore the
#: threshold: they exist precisely to avoid materializing p structures.
_AUTO_COLLAPSE_MIN_RANKS = 256


@dataclass
class SimResult:
    """Outcome of one simulated collective.

    ``actor_times`` holds the kernel's completion time per actor: per
    rank from the materialized core, per class from the collapsed one,
    whose ``labels`` map each rank to its class (``None`` otherwise).
    :attr:`rank_times` expands them to ranks on its first read, so a
    caller that reads only ``time`` pays nothing of size ``p``.
    """

    time: float                      # makespan (seconds)
    actor_times: Sequence[float]     # per-actor (rank or class) completion times
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
    labels: Optional[np.ndarray] = None  # rank -> class (collapsed engine only)

    @functools.cached_property
    def rank_times(self) -> Sequence[float]:
        """Each rank's completion time: the kernel's ``list`` from the
        materialized core, a ``float64`` array gathered over ``labels``
        from the collapsed one (``engine`` names which ran).
        ``engine="auto"`` picks the core, so a caller that needs a
        ``list`` converts.  Computed once, on the first read."""
        if self.labels is None:
            return self.actor_times
        return np.array(self.actor_times, dtype=np.float64)[self.labels]

    @property
    def time_us(self) -> float:
        """Makespan in microseconds (the unit the paper plots)."""
        return self.time * 1e6

    @property
    def complete(self) -> bool:
        """Whether every rank finished (no crash / stall under faults)."""
        return not self.failed_ranks and not self.stalled_ranks


def _collapse_blockers(
    schedule,
    machine: MachineSpec,
    *,
    noise,
    faults,
    collect_timeline: bool,
    block_map,
) -> Optional[Tuple[str, str]]:
    """Why this run cannot use the collapsed engine — ``(reason, text)``,
    the ``repro_engine_fallbacks_total`` label and the words — or
    ``None``.

    Any per-rank asymmetry breaks the class-equivalence argument: noise
    draws per-message factors, fault plans target individual ranks/links,
    and timelines and custom block maps need per-rank identity.
    Nonzero roots are rejected by policy — a rooted collective at
    ``root=r`` is isomorphic to ``root=0``, so rather than special-case
    the relabeling the dispatcher routes it to the materialized engine.
    """
    if noise is not None:
        return "noise", "noise model active"
    if faults is not None:
        return "faults", "fault plan present"
    if collect_timeline:
        return "timeline", "timeline collection requested"
    if block_map is not None:
        return "block_map", "custom block map"
    root = getattr(schedule, "root", None)
    if root not in (None, 0):
        return "root", f"nonzero root {root}"
    from ..compile.classes import machine_asymmetry

    asymmetry = machine_asymmetry(machine)
    return None if asymmetry is None else ("machine", asymmetry)


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

    The ranks walk the schedule's matched-message plan
    (:meth:`repro.core.schedule.Schedule.sim_plan`): raw step
    boundaries, IR op order, copies dropped (modeled as free — an
    intra-GPU memcpy is off the critical path at collective
    granularity).  The plan and :func:`repro.faults.sim.match_messages`
    read one FIFO matching
    (:meth:`~repro.core.schedule.Schedule.messages`); the differential
    suite pins the plan equal to both and to the IR's op stream on the
    whole registry grid.

    ``engine`` selects the simulation core.  ``"materialized"`` is the
    one-actor-per-rank table described above;
    ``"collapsed"`` simulates one representative per rank-equivalence
    class (the class plan of :mod:`repro.compile.classes`) and keeps
    its result per class, fanned back out to ranks when
    ``rank_times`` is read — bit-identical on symmetric inputs, and
    with the partition cached its cost tracks the class count, not
    ``p``; ``"auto"``
    (the default) picks collapsed when the run is symmetric (no noise,
    faults, timeline, custom block map, or nonzero root; an eligible
    machine) and large enough to profit, materialized otherwise.  An
    explicit ``engine="collapsed"`` request on an asymmetric run does not
    fail: it falls back to the materialized engine and records why in
    ``SimResult.fallback``.  With observability enabled, every
    ``auto`` / ``collapsed`` run that ends on the materialized engine
    counts once in ``repro_engine_fallbacks_total{reason}``, ``reason``
    one of :data:`FALLBACK_REASONS`.  ``machine`` may also be a registry name
    (e.g. ``"dragonfly-1024"``) — resolved via
    :func:`repro.simnet.machines.get`.

    The partition comes from one lookup for built and lazy schedules
    alike (:func:`repro.compile.classes.rank_classes`): the machine
    checks first, then the in-process partition cache, keyed by a digest
    of the schedule's columns — nothing is compiled or fingerprinted.
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
    # A plan that injects nothing is no plan: it neither blocks collapse
    # nor reaches the fault analysis.
    if faults is not None and not faults.is_active:
        faults = None

    # ------------------------------------------------------------------
    # Engine decision: the class plan when requested, eligible and
    # worth it; otherwise the per-rank plan, recording why.
    # ------------------------------------------------------------------
    lazy = getattr(schedule, "is_lazy", False)
    classes = None
    fallback: Optional[str] = None
    refused: Optional[str] = None  # repro_engine_fallbacks_total's reason
    if engine in ("auto", "collapsed"):
        blocker = _collapse_blockers(
            schedule,
            machine,
            noise=noise,
            faults=faults,
            collect_timeline=collect_timeline,
            block_map=block_map,
        )
        if blocker is not None:
            refused, text = blocker
            if engine == "collapsed":
                fallback = text
        elif engine == "auto" and not lazy and p < _AUTO_COLLAPSE_MIN_RANKS:
            refused = "small_p"  # policy choice, not a SimResult.fallback
        else:
            from ..compile.classes import rank_classes

            try:
                classes = rank_classes(schedule, machine, nbytes)
                # Auto policy: when the partition is degenerate (every
                # rank its own class — butterfly exchanges whose partner
                # *order* is rank-dependent), the class plan would just
                # re-enact the per-rank one.  Simulation cost should
                # track class count, so a partition that doesn't
                # collapse isn't worth the detour.  An explicit
                # engine="collapsed" request still runs it (the caller
                # asked for that core, and results are bit-identical
                # either way).
                if engine == "collapsed" or classes.nclasses < p:
                    plan = classes.plan
                else:
                    classes, refused = None, "degenerate"
            except ClassAnalysisError as exc:
                classes = None
                refused, fallback = "class_analysis", str(exc)

    scope = get_obs(obs)
    if classes is None:
        if lazy:
            schedule = schedule.materialize()
        if refused is not None and scope.enabled:
            scope.metrics.counter(
                "repro_engine_fallbacks_total", reason=refused
            ).inc()
        plan = schedule.sim_plan()
    blocks = schedule.block_map(nbytes) if block_map is None else block_map
    link, held, held_ids, contended = _route(plan, machine)
    sizes = plan.message_bytes(blocks.sizes)
    # A class plan's message stands for one per member of its sender's
    # class: the traffic counters weigh it by the class size.
    weight = None if classes is None else classes.sizes[plan.src]

    # Fault plan: the fate of messages and ranks is decided before the
    # run (decisions are deterministic, so fate is static even though
    # costs are dynamic).  repro.faults.sim.match_messages and the plan
    # read the same FIFO matching, Schedule.messages(), so message i is
    # one message to both.
    statics = (
        analyze(schedule, faults, match_messages(schedule))
        if faults is not None else None
    )
    nsteps = np.diff(plan.first).tolist()
    costs = cost_columns(
        machine, sizes, link, plan.reduce, nsteps,
        noise=noise, faults=faults, statics=statics,
        ends=(plan.src, plan.dst, plan.seq),
    )
    # Traffic accounting: every live message is delivered (or the kernel
    # raises), so the counters are sums over the live rows.
    if statics is not None:
        live = ~np.asarray(costs["doomed"], dtype=bool)
        link_live, sizes_live = link[live], sizes[live]
    else:
        link_live, sizes_live = link, sizes
    if weight is not None:  # a class plan never runs under faults
        sizes_live = sizes * weight
    by_link = np.bincount(
        link_live, weights=weight, minlength=3
    ).astype(np.int64).tolist()
    intra_bytes = int(sizes_live[link_live == LINK_INTRA].sum())

    timeline: Optional[List[Tuple]] = None
    attrs = {} if classes is None else {
        "engine": "collapsed", "nclasses": classes.nclasses,
    }
    with scope.span(
        "simulate",
        schedule=schedule.describe(),
        machine=machine.name,
        nbytes=nbytes,
        **attrs,
    ):
        makespan, actor_times, retransmissions, rows = kernel.run(
            codes=plan.codes.tolist(), bounds=plan.bounds.tolist(),
            first=plan.first.tolist(), src=plan.src, dst=plan.dst, held=held,
            held_ids=held_ids, capacity=_capacity(machine, plan),
            contended=contended, collect=collect_timeline, obs=scope,
            **costs,
        )
        if rows is not None:
            src, dst, nb, kind = plan.src, plan.dst, sizes.tolist(), link.tolist()
            timeline = [
                (src[i], dst[i], nb[i], t0, t1, LINK_NAMES[kind[i]])
                for i, t0, t1 in rows
            ]
        if scope.enabled:
            m = scope.metrics
            m.counter("repro_sim_runs_total").inc()
            for name, count in zip(LINK_NAMES, by_link):
                if count:
                    m.counter(
                        "repro_sim_messages_total", link=name
                    ).inc(count)
            if retransmissions:
                m.counter("repro_faults_sim_retransmissions_total").inc(
                    retransmissions
                )
            if timeline is not None:
                scope.tracer.attach_timeline(
                    timeline,
                    label=f"{schedule.describe()} n={nbytes}",
                    makespan=makespan,
                )
    failed_ranks: Tuple[int, ...] = ()
    stalled_ranks: Tuple[int, ...] = ()
    if statics is not None:
        failed_ranks = tuple(sorted(statics.crashed))
        stalled_ranks = tuple(sorted(statics.stall_step))
        for rank in range(p):
            if not statics.completes(rank, nsteps[rank]):
                actor_times[rank] = math.inf
    return SimResult(
        time=makespan,
        actor_times=actor_times,
        messages=len(plan.src) if weight is None else int(weight.sum()),
        intra_messages=by_link[LINK_INTRA],
        inter_messages=by_link[LINK_INTER] + by_link[LINK_GLOBAL],
        global_messages=by_link[LINK_GLOBAL],
        intra_bytes=intra_bytes,
        inter_bytes=int(sizes_live.sum()) - intra_bytes,
        timeline=timeline,
        retransmissions=retransmissions,
        failed_ranks=failed_ranks,
        stalled_ranks=stalled_ranks,
        engine="materialized" if classes is None else "collapsed",
        fallback=fallback,
        nclasses=None if classes is None else classes.nclasses,
        labels=None if classes is None else classes.labels,
    )


def _route(
    plan, machine: MachineSpec
) -> Tuple[np.ndarray, List[tuple], np.ndarray, Set[tuple]]:
    """Per message: its link class and the resource ids it holds (as
    tuples, and flattened for the kernel's certificate by
    :func:`~repro.simnet.kernel.flatten_held`), plus the table's
    ``contended`` hint for :func:`~repro.simnet.kernel.run`.

    A function of the plan and the machine's *geometry* alone, so it is
    memoized on the plan per geometry.  Resource ids: send port of node
    ``n`` is ``n``, its receive port ``N + n``, its shared fabric
    ``2N + n``; group ``g``'s egress pool is ``3N + g``, its ingress
    pool ``3N + G + g``.  An internode message holds (send port, recv
    port[, egress, ingress]) — one fixed global acquisition order, which
    prevents hold-and-wait cycles — an intranode one the node's fabric
    when it is shared, nothing when links are dedicated.  Tuples are
    interned per node pair.  The hint starts empty; the kernel fills it
    (it holds the capacity vectors under which this table failed a
    certificate, so their later runs skip the capacity-free pass).
    """
    nodes = machine.nodes
    df = machine.dragonfly
    npg = df.nodes_per_group if df is not None else 0
    pools = df is not None and df.global_channels is not None
    fabric = machine.intra_kind == "shared" and machine.ppn > 1
    if plan.link is not None:
        # A class plan: each representative is a node of its own (the
        # partition needs one rank per node and no channel pools), and
        # the plan carries the link classes of the real messages.
        nodes, npg, pools, fabric = plan.nactors, 0, False, False

    def make() -> Tuple[np.ndarray, List[tuple], np.ndarray, Set[tuple]]:
        sn = np.asarray(plan.src, dtype=np.int64)
        dn = np.asarray(plan.dst, dtype=np.int64)
        link = plan.link
        if link is None:
            if machine.placement == "round_robin":
                sn, dn = sn % nodes, dn % nodes
            else:
                sn, dn = sn // machine.ppn, dn // machine.ppn
            link = np.full(len(sn), LINK_INTER, dtype=np.int8)
            if npg:
                link[sn // npg != dn // npg] = LINK_GLOBAL
            link[sn == dn] = LINK_INTRA
        ngroups = nodes // npg if npg else 0
        interned: Dict[Tuple[int, int], tuple] = {}
        held = []
        for s, d, kind in zip(sn.tolist(), dn.tolist(), link.tolist()):
            h = interned.get((s, d))
            if h is None:
                if kind == LINK_INTRA:
                    h = (2 * nodes + s,) if fabric else ()
                elif kind == LINK_GLOBAL and pools:
                    h = (s, nodes + d, 3 * nodes + s // npg,
                         3 * nodes + ngroups + d // npg)
                else:
                    h = (s, nodes + d)
                interned[(s, d)] = h
            held.append(h)
        return link, held, kernel.flatten_held(held), set()

    return plan.route(
        (nodes, machine.ppn, machine.placement, npg, pools, fabric), make
    )


def _capacity(machine: MachineSpec, plan) -> list:
    """Units per resource id, in :func:`_route`'s numbering: a class
    plan's representatives own one send and one receive port pool each."""
    if plan.link is not None:
        return [machine.nic_ports] * (2 * plan.nactors)
    nodes = machine.nodes
    capacity = [machine.nic_ports] * (2 * nodes)
    capacity += [machine.intra_channels] * nodes
    df = machine.dragonfly
    if df is not None and df.global_channels is not None:
        capacity += [df.global_channels] * (2 * (nodes // df.nodes_per_group))
    return capacity


def cost_columns(
    machine: MachineSpec,
    nbytes: np.ndarray,
    link: np.ndarray,
    reduce: np.ndarray,
    nsteps: Sequence[int],
    *,
    noise: Optional[NoiseModel] = None,
    faults: Optional[FaultPlan] = None,
    statics: Optional[FaultStatics] = None,
    ends: Optional[Tuple[Sequence[int], ...]] = None,
) -> dict:
    """The cost recipe: every per-message and per-actor constant the
    kernel charges, as its keyword arguments.

    ``nbytes`` / ``link`` / ``reduce`` are per-message columns, ``nsteps``
    the step count per actor.  Noise, degraded links, delays, duplicates,
    stragglers, lost attempts and doomed messages are all constants of a
    message or a rank, so they are folded in here (``ends`` — the
    ``(src, dst, seq)`` columns — keys the fault plan's draws) and the
    kernel never sees a fault plan.  The arithmetic is elementwise and
    keeps the per-message association order, so every column is
    bit-identical to computing it one message at a time.
    """
    n = nbytes
    intra = link == LINK_INTRA
    hold = np.where(
        intra,
        machine.intra_msg_overhead + n * machine.beta_intra,
        machine.port_msg_overhead + n * machine.beta_inter,
    )
    alpha = np.where(intra, machine.alpha_intra, machine.alpha_inter)
    df = machine.dragonfly
    alpha_global = df.alpha_global if df is not None else 0.0
    gamma = machine.gamma * n
    factor = None
    if noise is not None:
        factor = np.array([noise.factor(i) for i in range(len(n))])
    if faults is not None:
        src, dst, seq = ends
        # A degraded link slows its own serialization.
        slow = np.array([faults.bandwidth_penalty(*e) for e in zip(src, dst)])
        factor = slow if factor is None else factor * slow
    if factor is not None:
        hold = hold * factor
        alpha = alpha * factor
        alpha_global = alpha_global * factor
        gamma = gamma * factor
    alpha = np.where(link == LINK_GLOBAL, alpha + alpha_global, alpha)
    final_hold = hold
    cols: dict = {
        "inject": [machine.injection_overhead] * len(nsteps),
        "limit": list(nsteps),
    }
    if faults is not None:
        # A straggler host is slow to post, slow to push messages onto
        # the wire (sender-side software latency) and slow to reduce.
        straggle = [faults.straggler_factor(r) for r in range(len(nsteps))]
        cols["inject"] = [machine.injection_overhead * f for f in straggle]
        straggle = np.array(straggle)
        triples = list(zip(src, dst, seq))
        alpha = (
            alpha * np.array([faults.delay(*t) for t in triples])
            * straggle[src]
        )
        gamma = gamma * straggle[dst]
        # Duplicates ride along with the surviving transmission,
        # charging their own serialization on the same links.
        final_hold = hold * (
            1 + np.array([faults.duplicates(*t) for t in triples])
        )
        if faults.has_loss:
            # Each lost transmission charges its serialization (the
            # bytes really crossed the wire before vanishing) plus a
            # timeout derived from the machine model — one round trip
            # plus the serialization time — backed off per the plan's
            # retry policy.  (None: every attempt lost; doomed below.)
            cols["attempts"] = [
                faults.attempts_needed(*t) or 0 for t in triples
            ]
            cols["rto"] = (2.0 * alpha + hold).tolist()
            cols["backoff"] = faults.retry.backoff
    if statics is not None:
        # Doomed messages never complete; a stalled rank posts its final
        # step's ops but waits only on the live ones.
        doomed = [False] * len(n)
        for i in statics.doomed:
            doomed[i] = True
        cols["doomed"] = doomed
        cols["limit"] = [statics.post_limit[r] for r in range(len(nsteps))]
    reducing = reduce & (n > 0) if machine.gamma > 0 else False
    cols["hold"] = hold.tolist()
    cols["final_hold"] = final_hold.tolist()
    cols["alpha"] = alpha.tolist()
    cols["gamma_t"] = np.where(reducing, gamma, -1.0).tolist()
    return cols


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
    cols = schedule.columns()
    sends = np.flatnonzero(cols.kinds == OP_SEND)
    block_sizes = np.asarray(schedule.block_map(nbytes).sizes, np.int64)
    sizes = cols.op_sizes(block_sizes)
    node = np.array([machine.node_of(r) for r in range(machine.nranks)])
    intra = node[cols.ranks()[sends]] == node[cols.peers[sends]]
    intra_m, intra_b = int(intra.sum()), int(sizes[sends[intra]].sum())
    msgs = len(sends)
    inter_m, inter_b = msgs - intra_m, int(sizes[sends].sum()) - intra_b
    return TrafficSummary(
        messages=msgs,
        intra_messages=intra_m,
        inter_messages=inter_m,
        intra_bytes=intra_b,
        inter_bytes=inter_b,
    )
