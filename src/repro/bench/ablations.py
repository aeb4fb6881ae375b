"""Ablation experiments: isolating each hardware mechanism the paper
credits for its results.

The paper *infers* mechanisms from end-to-end measurements ("the number of
ports per node determines the optimal k-value", "intranode links are the
dominant performance feature", "jobs dispersed across the system eliminate
k-ring's neighbor advantage").  A simulator can do what the testbed could
not: vary exactly one machine parameter at a time and confirm the causal
story.  Each ablation here sweeps one knob of the Frontier-like machine
and checks the corresponding claim.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.primitives import ilog
from ..core.registry import build_schedule
from ..simnet.machine import us
from ..simnet.machines import frontier
from ..simnet.simulate import simulate
from .report import ExperimentResult, format_size, format_table, speedup_str
from .sweep import radix_latency_sweep

__all__ = [
    "ablation_nic_ports",
    "ablation_injection_overhead",
    "ablation_intranode_ratio",
    "ablation_placement",
    "ablation_bruck_vs_recmul",
    "ablation_pipeline_segments",
    "ablation_hierarchical",
    "ablation_alltoall_crossover",
    "ABLATIONS",
]


def ablation_nic_ports(
    nodes: int = 64,
    nbytes: int = 65536,
    ports_grid: Sequence[int] = (1, 2, 4, 8),
    ks: Sequence[int] = (2, 3, 4, 5, 8, 16),
) -> ExperimentResult:
    """Claim (§VI-C2): the NIC port count determines recursive
    multiplying's optimal radix.  Sweep the port count with everything
    else fixed; the best k must track it upward."""
    rows = []
    best_ks = []
    for ports in ports_grid:
        machine = frontier(nodes, 1).with_(
            name=f"frontier-{ports}port", nic_ports=ports
        )
        sweep = radix_latency_sweep(
            "allreduce", "recursive_multiplying", machine, [nbytes], ks=ks
        )
        best = sweep.best_k(nbytes)
        best_ks.append(best)
        rows.append(
            [f"{ports} ports"]
            + [f"{sweep.latency(k, nbytes):.1f}" for k in ks]
            + [f"k={best}"]
        )
    res = ExperimentResult(
        exp_id="ablation-ports",
        title=f"NIC port count vs optimal recursive multiplying radix "
              f"({format_size(nbytes)} allreduce)",
        paper_claim="the number of ports per node determines the optimal k",
        text=format_table(
            ["machine"] + [f"k={k} µs" for k in ks] + ["best"], rows
        ),
        data={"best_ks": dict(zip(ports_grid, best_ks))},
    )
    res.check(
        "optimal k non-decreasing in port count",
        all(a <= b for a, b in zip(best_ks, best_ks[1:])),
        f"best k per port count: {best_ks}",
    )
    res.check(
        "optimal k stays within a small multiple of the port count",
        all(k <= 4 * ports or ports == 1
            for ports, k in zip(ports_grid, best_ks)),
        f"{list(zip(ports_grid, best_ks))}",
    )
    return res


def ablation_injection_overhead(
    nodes: int = 128,
    nbytes: int = 8,
    o_grid_us: Sequence[float] = (0.0, 0.015, 0.15, 1.5),
    ks: Sequence[int] = (2, 4, 8, 16, 32, 64, 128),
) -> ExperimentResult:
    """Claim (§III-D / Fig. 10a): per-message software overhead is what
    bounds the useful k-nomial radix.  With zero overhead the flat tree
    (k = p) must win tiny reductions; growing overhead must push the
    optimum down."""
    rows = []
    best_ks = []
    for o in o_grid_us:
        machine = frontier(nodes, 1).with_(
            name=f"frontier-o{o}", injection_overhead=us(o)
        )
        sweep = radix_latency_sweep(
            "reduce", "knomial", machine, [nbytes], ks=ks
        )
        best = sweep.best_k(nbytes)
        best_ks.append(best)
        rows.append(
            [f"o={o}µs"]
            + [f"{sweep.latency(k, nbytes):.2f}" for k in ks]
            + [f"k={best}"]
        )
    res = ExperimentResult(
        exp_id="ablation-injection",
        title="Injection overhead vs optimal k-nomial radix (8B reduce)",
        paper_claim="message buffering/software overhead caps the useful radix",
        text=format_table(
            ["machine"] + [f"k={k} µs" for k in ks] + ["best"], rows
        ),
        data={"best_ks": dict(zip(o_grid_us, best_ks))},
    )
    res.check(
        "zero overhead favors the flat tree (k = p)",
        best_ks[0] == nodes,
        f"best k = {best_ks[0]}",
    )
    res.check(
        "optimal k non-increasing as overhead grows",
        all(a >= b for a, b in zip(best_ks, best_ks[1:])),
        f"best k per overhead: {best_ks}",
    )
    res.check(
        "large overhead forces a narrow tree",
        best_ks[-1] <= 8,
        f"best k = {best_ks[-1]} at o={o_grid_us[-1]}µs",
    )
    return res


def ablation_intranode_ratio(
    nodes: int = 16,
    ppn: int = 8,
    nbytes: int = 4 << 20,
    speedups: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
) -> ExperimentResult:
    """Claim (§II-B3 / Fig. 8c): k-ring's win is the intranode link
    advantage.  Scale the intranode α and β from parity with the NIC to
    8x better; k-ring's gain over the classic ring must grow from nothing
    accordingly."""
    base = frontier(nodes, ppn)
    p = base.nranks
    ring_sched = build_schedule("bcast", "kring", p, k=1)
    kring_sched = build_schedule("bcast", "kring", p, k=ppn)
    rows = []
    gains = []
    for factor in speedups:
        machine = base.with_(
            name=f"frontier-intra{factor}x",
            alpha_intra=base.alpha_inter / factor,
            beta_intra=base.beta_inter / factor,
        )
        t_ring = simulate(ring_sched, machine, nbytes).time_us
        t_kring = simulate(kring_sched, machine, nbytes).time_us
        gain = t_ring / t_kring
        gains.append(gain)
        rows.append([f"{factor}x intranode", f"{t_ring:.0f}",
                     f"{t_kring:.0f}", speedup_str(gain)])
    res = ExperimentResult(
        exp_id="ablation-intranode",
        title=f"Intranode link advantage vs k-ring gain "
              f"({format_size(nbytes)} bcast, k = ppn = {ppn})",
        paper_claim="k-ring's benefit comes from the superior intranode "
                    "interconnect",
        text=format_table(
            ["intranode links", "ring µs", "k-ring µs", "gain"], rows
        ),
        data={"gains": dict(zip(speedups, gains))},
    )
    res.check(
        "no intranode advantage → no k-ring gain (±5%)",
        abs(gains[0] - 1.0) <= 0.05,
        speedup_str(gains[0]),
    )
    res.check(
        "gain strictly increases with the link advantage",
        all(a < b for a, b in zip(gains, gains[1:])),
        f"gains: {[f'{g:.2f}' for g in gains]}",
    )
    return res


def ablation_placement(
    nodes: int = 16,
    ppn: int = 8,
    nbytes: int = 4 << 20,
    ks: Sequence[int] = (1, 2, 4, 8, 16),
) -> ExperimentResult:
    """Claim (§VI-C3): "jobs of smaller size are dispersed across the
    9000+ nodes in the system, eliminating k-ring's neighbor communication
    advantage."  Compare packed (block) placement against round-robin
    dispersal: the same schedules, the same machine, only the rank→node
    map changes."""
    base = frontier(nodes, ppn)
    rows = []
    sweeps: Dict[str, List[float]] = {}
    for placement in ("block", "round_robin"):
        machine = base.with_(
            name=f"frontier-{placement}", placement=placement
        )
        sweep = radix_latency_sweep(
            "bcast", "kring", machine, [nbytes], ks=ks
        )
        sweeps[placement] = [sweep.latency(k, nbytes) for k in ks]
        rows.append(
            [placement]
            + [f"{sweep.latency(k, nbytes):.0f}" for k in ks]
            + [f"k={sweep.best_k(nbytes)}", f"{sweep.flatness(nbytes):.2f}"]
        )
    res = ExperimentResult(
        exp_id="ablation-placement",
        title=f"Rank placement vs k-ring gain ({format_size(nbytes)} bcast)",
        paper_claim="dispersed placement eliminates k-ring's neighbor "
                    "advantage",
        text=format_table(
            ["placement"] + [f"k={k} µs" for k in ks]
            + ["best", "max/min over k"],
            rows,
        ),
        data={"sweeps": sweeps},
    )
    block = sweeps["block"]
    rr = sweeps["round_robin"]
    block_gain = max(block) / min(block)
    rr_gain = max(rr) / min(rr)
    res.check(
        "packed placement rewards the radix",
        block_gain > 1.5,
        f"max/min over k = {block_gain:.2f}",
    )
    res.check(
        "dispersed placement flattens the radix response",
        rr_gain < block_gain / 1.5,
        f"max/min over k = {rr_gain:.2f} (vs {block_gain:.2f} packed)",
    )
    return res


def ablation_bruck_vs_recmul(
    nbytes: int = 64,
    ps: Sequence[int] = (16, 17, 31, 32),
    k: int = 4,
) -> ExperimentResult:
    """Extension study: the fold/unfold cost of the recursive multiplying
    butterfly on awkward process counts, against the fold-free k-port
    Bruck exchange.  On smooth p they should tie; on p needing a fold
    Bruck must win by about the two extra latencies."""
    rows = []
    verdicts = []
    for p in ps:
        # Strip the dragonfly layer: group boundaries shift with the node
        # count and would confound the fold-cost comparison across p.
        machine = frontier(p, 1).with_(name=f"frontier-{p}", dragonfly=None)
        t_recmul = simulate(
            build_schedule("allgather", "recursive_multiplying", p, k=k),
            machine, nbytes,
        ).time_us
        t_bruck = simulate(
            build_schedule("allgather", "bruck", p, k=k), machine, nbytes
        ).time_us
        from ..core.recursive import smooth_core

        folded = p - smooth_core(p, k)
        verdicts.append((p, folded, t_recmul, t_bruck))
        rows.append(
            [p, folded, ilog(k, p), f"{t_recmul:.2f}", f"{t_bruck:.2f}",
             speedup_str(t_recmul / t_bruck)]
        )
    res = ExperimentResult(
        exp_id="ablation-bruck",
        title=f"Fold-free Bruck vs recursive multiplying "
              f"({format_size(nbytes)} allgather, k={k})",
        paper_claim="(extension) non-power-of-k corner cases cost the "
                    "butterfly two extra latencies that a rotation-based "
                    "exchange avoids",
        text=format_table(
            ["p", "folded ranks", "bruck rounds", "recmul µs", "bruck µs",
             "bruck gain"],
            rows,
        ),
    )
    for p, folded, t_recmul, t_bruck in verdicts:
        if folded == 0:
            res.check(
                f"parity on smooth p={p} (±10%)",
                abs(t_recmul / t_bruck - 1.0) <= 0.10,
                speedup_str(t_recmul / t_bruck),
            )
        else:
            res.check(
                f"bruck wins on folded p={p}",
                t_bruck < t_recmul,
                speedup_str(t_recmul / t_bruck),
            )
    return res


def ablation_pipeline_segments(
    nodes: int = 32,
    sizes: Sequence[int] = (65536, 1 << 20, 4 << 20),
    segment_grid: Sequence[int] = (1, 4, 16, 64, 256),
) -> ExperimentResult:
    """Extension study: the chain broadcast's segment count behaves like
    the paper's radices — a size-dependent optimum with a closed form.

    Checks that the segment-vs-latency curve is U-shaped, that the optimum
    grows with message size, and that the analytical optimum ``S* =
    √(nβ(p-2)/α)`` lands within 15% of the swept best."""
    from ..core.pipeline import chain_bcast, optimal_segments

    machine = frontier(nodes, 1)
    p = machine.nranks
    rows = []
    sweeps: Dict[int, Dict[int, float]] = {}
    for nbytes in sizes:
        times = {
            s: simulate(chain_bcast(p, s), machine, nbytes).time_us
            for s in segment_grid
        }
        s_star = optimal_segments(
            nbytes, p, machine.alpha_inter, machine.beta_inter
        )
        t_star = simulate(chain_bcast(p, s_star), machine, nbytes).time_us
        sweeps[nbytes] = times
        rows.append(
            [format_size(nbytes)]
            + [f"{times[s]:.0f}" for s in segment_grid]
            + [f"S={min(times, key=times.get)}", f"S*={s_star}",
               f"{t_star:.0f}"]
        )
    res = ExperimentResult(
        exp_id="ablation-pipeline",
        title="Chain bcast segment-count sweep (the other tunable knob)",
        paper_claim="(extension) pipelining exposes a size-dependent "
                    "optimum exactly like the paper's radices",
        text=format_table(
            ["size"] + [f"S={s} µs" for s in segment_grid]
            + ["best", "closed form", "S* µs"],
            rows,
        ),
        data={"sweeps": sweeps},
    )
    best_per_size = [min(sweeps[n], key=sweeps[n].get) for n in sizes]
    res.check(
        "optimal segment count grows with message size",
        all(a <= b for a, b in zip(best_per_size, best_per_size[1:])),
        f"best S per size: {best_per_size}",
    )
    for nbytes in sizes:
        s_star = optimal_segments(
            nbytes, p, machine.alpha_inter, machine.beta_inter
        )
        t_star = simulate(chain_bcast(p, s_star), machine, nbytes).time_us
        best = min(sweeps[nbytes].values())
        res.check(
            f"closed-form S* within 15% of swept best at {format_size(nbytes)}",
            t_star <= best * 1.15,
            f"S*={s_star}: {t_star:.0f}µs vs best {best:.0f}µs",
        )
    return res


def ablation_hierarchical(
    nodes: int = 8,
    ppn: int = 8,
    sizes: Sequence[int] = (1024, 65536, 1 << 20),
) -> ExperimentResult:
    """Extension study: the hierarchical (Hasanov-style [17]) allreduce
    against the paper's flat generalized algorithms on the 8-ppn machine.

    Expected shape: hierarchical wins the latency/medium regime (full
    vectors cross the NIC only between leaders), the block-partitioned
    k-ring wins the bandwidth regime, and both beat flat recursive
    doubling — the three-way trade §II-B3 implies."""
    from ..core.hierarchical import hierarchical_allreduce

    machine = frontier(nodes, ppn)
    p = machine.nranks
    hier = hierarchical_allreduce(
        p, ppn, leader_algorithm="recursive_multiplying", leader_k=4
    )
    flat = build_schedule("allreduce", "recursive_doubling", p)
    recmul = build_schedule("allreduce", "recursive_multiplying", p, k=4)
    kring = build_schedule("allreduce", "kring", p, k=ppn)
    rows = []
    results: Dict[int, Dict[str, float]] = {}
    for nbytes in sizes:
        times = {
            "hierarchical": simulate(hier, machine, nbytes).time_us,
            "flat recdbl": simulate(flat, machine, nbytes).time_us,
            "flat recmul k=4": simulate(recmul, machine, nbytes).time_us,
            f"kring k={ppn}": simulate(kring, machine, nbytes).time_us,
        }
        results[nbytes] = times
        winner = min(times, key=times.get)
        rows.append(
            [format_size(nbytes)]
            + [f"{times[name]:.1f}" for name in times]
            + [winner]
        )
    res = ExperimentResult(
        exp_id="ablation-hierarchical",
        title=f"Hierarchical vs flat allreduce ({nodes}x{ppn} Frontier)",
        paper_claim="(extension) two-level composition is the latency-"
                    "regime answer to heterogeneous links; k-ring is the "
                    "bandwidth-regime answer",
        text=format_table(
            ["size", "hierarchical µs", "flat recdbl µs",
             "flat recmul k=4 µs", f"kring k={ppn} µs", "winner"],
            rows,
        ),
        data={"results": results},
    )
    mid = sorted(sizes)[len(sizes) // 2]
    big = max(sizes)
    res.check(
        "hierarchical beats every flat whole-vector algorithm at medium "
        "sizes",
        results[mid]["hierarchical"]
        < min(results[mid]["flat recdbl"], results[mid]["flat recmul k=4"]),
        f"{results[mid]['hierarchical']:.1f}µs at {format_size(mid)}",
    )
    res.check(
        "k-ring takes over in the bandwidth regime",
        results[big][f"kring k={ppn}"] < results[big]["hierarchical"],
        f"{results[big][f'kring k={ppn}']:.1f}µs vs "
        f"{results[big]['hierarchical']:.1f}µs",
    )
    res.check(
        "hierarchical always beats flat recursive doubling",
        all(results[n]["hierarchical"] < results[n]["flat recdbl"]
            for n in sizes),
    )
    return res


def ablation_alltoall_crossover(
    nodes: int = 64,
    sizes: Sequence[int] = (4096, 1 << 20, 64 << 20, 256 << 20),
    ks: Sequence[int] = (2, 4, 8),
) -> ExperimentResult:
    """Extension study ([12] lineage): Bruck digit routing vs pairwise
    exchange for all-to-all.

    Expected shape: latency-bound sizes favor Bruck's ``\u2308log_k p\u2309``
    rounds; bandwidth-bound sizes favor pairwise's move-each-block-once
    optimality; larger Bruck radices shift the crossover by trading rounds
    against forwarding volume."""
    machine = frontier(nodes, 1)
    p = machine.nranks
    pairwise = build_schedule("alltoall", "pairwise", p)
    brucks = {k: build_schedule("alltoall", "bruck", p, k=k) for k in ks}
    rows = []
    times: Dict[int, Dict[str, float]] = {}
    for nbytes in sizes:
        entry = {"pairwise": simulate(pairwise, machine, nbytes).time_us}
        for k in ks:
            entry[f"bruck k={k}"] = simulate(
                brucks[k], machine, nbytes
            ).time_us
        times[nbytes] = entry
        rows.append(
            [format_size(nbytes)]
            + [f"{entry[name]:.1f}" for name in entry]
            + [min(entry, key=entry.get)]
        )
    res = ExperimentResult(
        exp_id="ablation-alltoall",
        title=f"All-to-all: Bruck digit routing vs pairwise exchange "
              f"({nodes}x1 Frontier)",
        paper_claim="(extension, [12]) aggregation wins small messages, "
                    "move-once wins large; the radix shifts the crossover",
        text=format_table(
            ["size", "pairwise \u00b5s"] + [f"bruck k={k} \u00b5s" for k in ks]
            + ["winner"],
            rows,
        ),
        data={"times": times},
    )
    small, big = min(sizes), max(sizes)
    res.check(
        "Bruck wins the small-message regime",
        min(times[small][f"bruck k={k}"] for k in ks)
        < times[small]["pairwise"],
        f"{min(times[small][f'bruck k={k}'] for k in ks):.1f}\u00b5s vs "
        f"{times[small]['pairwise']:.1f}\u00b5s",
    )
    res.check(
        "pairwise overtakes classic (k=2) Bruck at large sizes",
        times[big]["pairwise"] < times[big]["bruck k=2"],
        f"{times[big]['pairwise']:.1f}\u00b5s vs "
        f"{times[big]['bruck k=2']:.1f}\u00b5s",
    )
    # The multi-port finding: a high-radix Bruck forwards less (fewer
    # rounds) AND fans out across the NIC ports, extending its winning
    # range well past the classic algorithm's crossover — the paper's
    # §II-B2 thesis applied to all-to-all.
    res.check(
        "raising the radix extends Bruck's winning range",
        all(
            times[n][f"bruck k={max(ks)}"] <= times[n]["bruck k=2"]
            for n in sizes
        ),
        f"k={max(ks)} vs k=2 at {format_size(big)}: "
        f"{times[big][f'bruck k={max(ks)}']:.1f}\u00b5s vs "
        f"{times[big]['bruck k=2']:.1f}\u00b5s",
    )
    return res


ABLATIONS = {
    "ablation-ports": ablation_nic_ports,
    "ablation-injection": ablation_injection_overhead,
    "ablation-intranode": ablation_intranode_ratio,
    "ablation-placement": ablation_placement,
    "ablation-bruck": ablation_bruck_vs_recmul,
    "ablation-pipeline": ablation_pipeline_segments,
    "ablation-hierarchical": ablation_hierarchical,
    "ablation-alltoall": ablation_alltoall_crossover,
}
