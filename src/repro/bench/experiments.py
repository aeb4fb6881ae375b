"""Experiment definitions: one function per paper table/figure.

Each ``fig*``/``table*`` function runs the corresponding measurement on
the simulated machines and returns an :class:`ExperimentResult` holding

* the raw data series (the rows/series the paper's figure plots),
* a rendered plain-text table, and
* a list of *shape checks*: the qualitative claims the paper makes about
  that figure (who wins, by roughly what factor, where crossovers fall),
  evaluated against the simulated data.

The benchmark suite (``benchmarks/``) executes these and asserts the shape
checks; EXPERIMENTS.md records the paper-vs-measured comparison they
produce.  Scales are reduced from the paper's node counts where a full
sweep would be needlessly slow in a Python simulator (each function's
docstring states the substitution); the 1024-node Fig. 10 runs at full
scale since tree algorithms stay cheap.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.registry import (
    GENERALIZED_ALGORITHMS,
    TABLE1,
    algorithms_for,
    build_schedule,
    info,
)
from ..errors import ReproError
from ..models import (
    ModelParams,
    kring_inter_group_data,
    model_time,
    ring_inter_group_data,
)
from ..selection.defaults import mpich_policy, vendor_policy
from ..selection.tuner import tune
from ..simnet.machines import frontier, polaris, reference
from ..simnet.noise import NoiseModel
from ..simnet.simulate import simulate, traffic_summary
from .ablations import ABLATIONS
from .osu import default_sizes
from .report import (
    ExperimentResult,
    format_size,
    format_table,
    geomean,
    speedup_str,
)
from .speedup import speedup_curves
from .sweep import RadixSweep, radix_latency_sweep

__all__ = [
    "ExperimentResult",
    "ALL_EXPERIMENTS",
    "run_experiment",
    "table1_capability",
    "fig7_slowdown",
    "fig8a_reduce_knomial",
    "fig8b_allreduce_recmul",
    "fig8c_bcast_kring",
    "fig9_speedup",
    "fig10a_scale_reduce",
    "fig10bc_scale_recmul",
    "fig11a_polaris_knomial",
    "fig11b_polaris_recmul",
    "fig11c_polaris_kring",
    "eq13_data_volume",
    "models_vs_sim",
    "variance_study",
    "selection_config",
    "fig_diagrams",
]


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------

def table1_capability() -> ExperimentResult:
    """Table I: the kernel → generalized kernel → collectives matrix,
    checked against what the registry actually provides (all 10 builders
    present and generalized)."""
    rows = []
    for base, (gen, colls) in TABLE1.items():
        rows.append([base, gen, ", ".join(colls)])
    res = ExperimentResult(
        exp_id="table1",
        title="Generalized kernels and the collectives they implement",
        paper_claim="three kernels generalize into 10 collective implementations",
        text=format_table(
            ["base kernel", "generalized kernel", "collectives"], rows
        ),
        data={"table1": TABLE1},
    )
    registered = 0
    for coll, alg in GENERALIZED_ALGORITHMS:
        entry = info(coll, alg)
        if entry.generalized and entry.takes_k:
            registered += 1
    res.check(
        "all 10 generalized implementations registered",
        registered == 10,
        f"{registered}/10",
    )
    for base, (gen, colls) in TABLE1.items():
        for coll in colls:
            res.check(
                f"{coll}/{gen} builds",
                (coll, gen) in GENERALIZED_ALGORITHMS,
            )
    return res


# ----------------------------------------------------------------------
# Fig. 7 — generalization at the default radix does not slow down
# ----------------------------------------------------------------------

def fig7_slowdown(
    nodes: int = 32, sizes: Optional[Sequence[int]] = None
) -> ExperimentResult:
    """Fig. 7: message size vs slowdown of each generalized algorithm at
    its default radix relative to the classic fixed-radix implementation.

    Scale note: run at 32 nodes (the paper's smaller configuration); the
    result is structural — default-radix generalized schedules are
    *identical* to the classics — so scale cannot change it.
    """
    sizes = list(sizes) if sizes else default_sizes(8, 1 << 20)
    pairs = [
        ("bcast", "knomial", 2, "binomial", frontier(nodes, 1)),
        ("reduce", "knomial", 2, "binomial", frontier(nodes, 1)),
        ("allgather", "recursive_multiplying", 2, "recursive_doubling",
         frontier(nodes, 1)),
        ("allreduce", "recursive_multiplying", 2, "recursive_doubling",
         frontier(nodes, 1)),
        ("bcast", "kring", 1, "ring", frontier(nodes // 4, 8)),
        ("allreduce", "kring", 1, "ring", frontier(nodes // 4, 8)),
    ]
    rows = []
    worst = 0.0
    for coll, gen_alg, k, base_alg, machine in pairs:
        p = machine.nranks
        gen = build_schedule(coll, gen_alg, p, k=k)
        base = build_schedule(coll, base_alg, p)
        for n in sizes:
            t_gen = simulate(gen, machine, n).time_us
            t_base = simulate(base, machine, n).time_us
            slowdown = t_gen / t_base
            worst = max(worst, slowdown)
            rows.append(
                [f"{coll}/{gen_alg}@k={k}", machine.name, format_size(n),
                 t_base, t_gen, f"{slowdown:.3f}"]
            )
    res = ExperimentResult(
        exp_id="fig7",
        title="Slowdown of generalized algorithms at default radix",
        paper_claim="generalization does not result in slowdown",
        text=format_table(
            ["algorithm", "machine", "size", "classic µs", "generalized µs",
             "slowdown"],
            rows,
        ),
        data={"worst_slowdown": worst},
    )
    res.check(
        "no slowdown beyond noise (≤ 1.01x)", worst <= 1.01,
        f"worst {worst:.3f}x",
    )
    return res


# ----------------------------------------------------------------------
# Fig. 8 — parameter value vs latency on Frontier
# ----------------------------------------------------------------------

def fig8a_reduce_knomial(
    nodes: int = 128,
    sizes: Sequence[int] = (8, 512, 16384, 262144, 1 << 20),
    ks: Sequence[int] = (2, 4, 8, 16, 32, 64, 128),
) -> ExperimentResult:
    """Fig. 8(a): MPI_Reduce k-nomial, 128 nodes × 1 ppn Frontier."""
    machine = frontier(nodes, 1)
    sweep = radix_latency_sweep("reduce", "knomial", machine, sizes, ks=ks)
    res = _radix_result(
        "fig8a",
        "MPI_Reduce k-nomial radix sweep (Frontier, 128x1)",
        "large k wins small messages; optimal k decreases as size grows",
        sweep,
    )
    small, large = min(sizes), max(sizes)
    res.check(
        "small messages favor large radix",
        sweep.best_k(small) >= 8,
        f"best k at {format_size(small)} = {sweep.best_k(small)}",
    )
    res.check(
        "large messages favor small radix",
        sweep.best_k(large) <= 4,
        f"best k at {format_size(large)} = {sweep.best_k(large)}",
    )
    res.check(
        "optimal k non-increasing in size (within grid)",
        _mostly_monotone_down([sweep.best_k(n) for n in sizes]),
        f"best k per size: {[sweep.best_k(n) for n in sizes]}",
    )
    return res


def fig8b_allreduce_recmul(
    nodes: int = 128,
    sizes: Sequence[int] = (8, 1024, 65536, 1 << 20),
    ks: Sequence[int] = (2, 3, 4, 5, 8, 16, 32),
) -> ExperimentResult:
    """Fig. 8(b): MPI_Allreduce recursive multiplying, 128 nodes × 1 ppn."""
    machine = frontier(nodes, 1)
    sweep = radix_latency_sweep(
        "allreduce", "recursive_multiplying", machine, sizes, ks=ks
    )
    res = _radix_result(
        "fig8b",
        "MPI_Allreduce recursive multiplying radix sweep (Frontier, 128x1)",
        "k at or near 4 (the NIC port count) is best for all message sizes",
        sweep,
    )
    for n in sizes:
        best = sweep.best_k(n)
        if n >= 16384:
            res.check(
                f"best k near port count at {format_size(n)}",
                3 <= best <= 8,
                f"best k = {best} (ports = 4)",
            )
        else:
            # Documented divergence: at tiny sizes our simulator's optimum
            # sits at a small *multiple* of the port count rather than the
            # port count itself (the paper found k≈4 surprising there too —
            # its own model predicts larger k; see EXPERIMENTS.md).
            res.check(
                f"best k bounded by 4x ports at {format_size(n)}",
                best <= 16,
                f"best k = {best} (ports = 4)",
            )
    mid = [n for n in sizes if n >= 1024]
    if mid:
        k4 = geomean([sweep.latency(4, n) for n in mid])
        k2 = geomean([sweep.latency(2, n) for n in mid])
        res.check(
            "k=4 beats the default radix (k=2)",
            k4 < k2,
            f"geomean {k4:.1f}µs vs {k2:.1f}µs",
        )
    return res


def fig8c_bcast_kring(
    nodes: int = 16,
    sizes: Sequence[int] = (65536, 1 << 20, 4 << 20),
    ks: Sequence[int] = (1, 2, 4, 8, 16, 32, 128),
) -> ExperimentResult:
    """Fig. 8(c): MPI_Bcast k-ring, Frontier 8 ppn, large messages.

    Scale note: 16 nodes × 8 ppn (128 ranks) rather than the paper's 128
    nodes × 8 (1024 ranks) — the k-ring mechanism (intranode vs internode
    round speed) depends on the node boundary structure, not the node
    count, and the ring's O(p) messages per simulated round make the full
    scale pointlessly slow in Python.
    """
    machine = frontier(nodes, 8)
    sweep = radix_latency_sweep("bcast", "kring", machine, sizes, ks=ks)
    res = _radix_result(
        "fig8c",
        f"MPI_Bcast k-ring radix sweep (Frontier, {nodes}x8)",
        "k = 8 (processes per node) is best for large messages",
        sweep,
    )
    for n in sizes:
        best = sweep.best_k(n)
        res.check(
            f"best k = ppn at {format_size(n)}",
            best == 8,
            f"best k = {best}",
        )
    big = max(sizes)
    gain = sweep.latency(1, big) / sweep.latency(8, big)
    res.check(
        "k=8 significantly beats classic ring at large sizes",
        gain >= 1.5,
        f"{speedup_str(gain)} at {format_size(big)}",
    )
    return res


# ----------------------------------------------------------------------
# Fig. 9 — best generalized algorithm speedups
# ----------------------------------------------------------------------

_FIG9_EXPECTATIONS = {
    # collective: (max speedup vs baseline >=, max vs vendor >=, note)
    "reduce": (1.5, 2.0, "high small-message speedup; >4.5x vs vendor at large"),
    "bcast": (1.05, 1.05, "small speedups except large-message recmul (k=16)"),
    "allgather": (1.3, 1.3, "significant 1.4-2.0x for nearly all sizes"),
    "allreduce": (1.15, 1.15, "significant 1.2-1.8x, recmul k near 4"),
}

#: Fixed algorithms included in the Fig. 9 "best per size" search — the
#: paper selects "the optimal algorithm for each message size using our
#: complete results", i.e. the exhaustive benchmark of everything in
#: MPICH, not only the generalized algorithms.
_FIG9_FIXED: Dict[str, List[str]] = {
    "reduce": ["binomial", "reduce_scatter_gather"],
    "bcast": ["binomial", "recursive_doubling"],
    "allgather": ["recursive_doubling"],
    "allreduce": ["recursive_doubling", "reduce_scatter_allgather"],
}


def fig9_speedup(
    collective: str,
    nodes: int = 128,
    sizes: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    """Fig. 9(a-d): speedup of the best algorithm per size over (i) the
    fixed-radix default policy and (ii) the vendor policy.

    K-ring is excluded from the candidate set at 1 ppn, matching the
    paper's finding that k-ring never won in that configuration (§VI-C3);
    ring is excluded for the reason documented on
    :func:`repro.selection.defaults.mpich_policy`.
    """
    if collective not in _FIG9_EXPECTATIONS:
        raise ReproError(f"fig9 covers bcast/reduce/allgather/allreduce, "
                         f"not {collective!r}")
    machine = frontier(nodes, 1)
    sizes = list(sizes) if sizes else default_sizes(8, 4 << 20)
    from ..selection.tuner import radix_grid  # local to avoid cycle at import

    cands: List[Tuple[str, Sequence[Optional[int]]]] = []
    for coll, alg in GENERALIZED_ALGORITHMS:
        if coll == collective and alg != "kring":
            cands.append(
                (alg, radix_grid(machine.nranks, min_k=info(coll, alg).min_k))
            )
    for alg in _FIG9_FIXED[collective]:
        cands.append((alg, [None]))
    curve = speedup_curves(collective, machine, sizes, candidates=cands)
    rows = [
        [
            format_size(pt.nbytes),
            pt.best_choice.describe(),
            pt.best_us,
            pt.baseline_us,
            pt.vendor_us,
            speedup_str(pt.speedup_vs_baseline),
            speedup_str(pt.speedup_vs_vendor),
        ]
        for pt in curve.points
    ]
    res = ExperimentResult(
        exp_id=f"fig9-{collective}",
        title=f"MPI_{collective.capitalize()} best-generalized speedup "
              f"(Frontier, {nodes}x1)",
        paper_claim=_FIG9_EXPECTATIONS[collective][2],
        text=format_table(
            ["size", "best algorithm", "best µs", "default µs", "vendor µs",
             "vs default", "vs vendor"],
            rows,
        ),
        data={"curve": curve},
    )
    need_base, need_vendor, _ = _FIG9_EXPECTATIONS[collective]
    res.check(
        f"peak speedup vs default ≥ {need_base}x",
        curve.max_speedup_vs_baseline() >= need_base,
        speedup_str(curve.max_speedup_vs_baseline()),
    )
    res.check(
        f"peak speedup vs vendor ≥ {need_vendor}x",
        curve.max_speedup_vs_vendor() >= need_vendor,
        speedup_str(curve.max_speedup_vs_vendor()),
    )
    res.check(
        "generalized never slower than default beyond noise",
        all(pt.speedup_vs_baseline >= 0.99 for pt in curve.points),
        f"min {min(pt.speedup_vs_baseline for pt in curve.points):.3f}x",
    )
    if collective == "reduce":
        large = [pt for pt in curve.points if pt.nbytes >= (1 << 20)]
        if large:
            peak = max(pt.speedup_vs_vendor for pt in large)
            res.check(
                "large-message reduce soars vs vendor (≥ 3x)",
                peak >= 3.0,
                speedup_str(peak),
            )
    return res


# ----------------------------------------------------------------------
# Fig. 10 — 1024-node scale
# ----------------------------------------------------------------------

def fig10a_scale_reduce(
    nodes: int = 1024,
    sizes: Sequence[int] = (8, 128, 2048, 32768, 524288),
    ks: Sequence[int] = (2, 8, 32, 128, 1024),
) -> ExperimentResult:
    """Fig. 10(a): MPI_Reduce k-nomial at 1024 nodes — large radices keep
    winning small messages, but k = p is *worse* than k = 128 (the radix
    has an upper bound at scale)."""
    machine = frontier(nodes, 1)
    sweep = radix_latency_sweep("reduce", "knomial", machine, sizes, ks=ks)
    res = _radix_result(
        "fig10a",
        "MPI_Reduce k-nomial at 1024 nodes (Frontier)",
        "larger k wins small sizes, but k=1024 always worse than k=128",
        sweep,
    )
    small = min(sizes)
    res.check(
        "large radix wins small messages",
        sweep.best_k(small) >= 32,
        f"best k = {sweep.best_k(small)}",
    )
    kp_worse = all(
        sweep.latency(1024, n) > sweep.latency(128, n) for n in sizes
    )
    res.check("k=p (1024) always worse than k=128", kp_worse)
    res.check(
        "generalization still beats k=2 at scale (small sizes)",
        sweep.latency(2, small) / sweep.best_latency(small) >= 1.5,
        speedup_str(sweep.latency(2, small) / sweep.best_latency(small)),
    )
    return res


def fig10bc_scale_recmul(
    collective: str = "allreduce",
    nodes: int = 1024,
    sizes: Sequence[int] = (8, 512, 8192, 65536, 524288, 2 << 20),
    ks: Sequence[int] = (2, 4, 8),
) -> ExperimentResult:
    """Fig. 10(b)/(c): recursive multiplying MPI_Allgather / MPI_Allreduce
    at 1024 nodes — the k ∈ {4, 8} speedups from 128 nodes replicate until
    the largest sizes."""
    if collective not in ("allgather", "allreduce"):
        raise ReproError("fig10bc covers allgather and allreduce")
    machine = frontier(nodes, 1)
    sweep = radix_latency_sweep(
        collective, "recursive_multiplying", machine, sizes, ks=ks
    )
    vendor_us = {
        n: _vendor_latency(collective, machine, n) for n in sizes
    }
    rows = []
    for n in sizes:
        row = [format_size(n)] + [sweep.latency(k, n) for k in ks]
        row.append(vendor_us[n])
        rows.append(row)
    res = ExperimentResult(
        exp_id=f"fig10-{collective}",
        title=f"MPI_{collective.capitalize()} recursive multiplying at "
              f"{nodes} nodes",
        paper_claim="consistent speedup from k=4 and k=8 until large sizes",
        text=format_table(
            ["size"] + [f"k={k} µs" for k in ks] + ["vendor µs"], rows
        ),
        data={"sweep": sweep, "vendor_us": vendor_us},
    )
    small_mid = [n for n in sizes if n <= 65536]
    wins = sum(
        1
        for n in small_mid
        if min(sweep.latency(4, n), sweep.latency(8, n)) < sweep.latency(2, n)
    )
    res.check(
        "k∈{4,8} beats k=2 through small/medium sizes",
        wins == len(small_mid),
        f"{wins}/{len(small_mid)} sizes",
    )
    wins_vendor = sum(
        1
        for n in small_mid
        if min(sweep.latency(4, n), sweep.latency(8, n)) < vendor_us[n]
    )
    res.check(
        "k∈{4,8} beats the vendor through small/medium sizes",
        wins_vendor >= len(small_mid) - 1,
        f"{wins_vendor}/{len(small_mid)} sizes",
    )
    return res


# ----------------------------------------------------------------------
# Fig. 11 — Polaris
# ----------------------------------------------------------------------

def fig11a_polaris_knomial(
    nodes: int = 128,
    sizes: Sequence[int] = (8, 512, 16384, 262144, 1 << 20),
    ks: Sequence[int] = (2, 4, 8, 16, 32, 64, 128),
) -> ExperimentResult:
    """Fig. 11(a): the Frontier k-nomial trends replicate on Polaris."""
    machine = polaris(nodes, 1)
    sweep = radix_latency_sweep("reduce", "knomial", machine, sizes, ks=ks)
    res = _radix_result(
        "fig11a",
        "MPI_Reduce k-nomial radix sweep (Polaris, 128x1)",
        "optimal k near p for very small messages, decreasing with size",
        sweep,
    )
    res.check(
        "small messages favor large radix",
        sweep.best_k(min(sizes)) >= 8,
        f"best k = {sweep.best_k(min(sizes))}",
    )
    res.check(
        "large messages favor small radix",
        sweep.best_k(max(sizes)) <= 4,
        f"best k = {sweep.best_k(max(sizes))}",
    )
    return res


def fig11b_polaris_recmul(
    nodes: int = 128,
    sizes: Sequence[int] = (8, 1024, 65536, 1 << 20),
    ks: Sequence[int] = (2, 3, 4, 5, 8, 16),
) -> ExperimentResult:
    """Fig. 11(b): recursive multiplying on Polaris prefers k = 4 or 8 —
    the smallest multiples of its two NIC ports."""
    machine = polaris(nodes, 1)
    sweep = radix_latency_sweep(
        "allreduce", "recursive_multiplying", machine, sizes, ks=ks
    )
    res = _radix_result(
        "fig11b",
        "MPI_Allreduce recursive multiplying radix sweep (Polaris, 128x1)",
        "optimal k is 4 or 8 — small multiples of the 2 ports per node",
        sweep,
    )
    for n in sizes:
        if n >= 16384:
            best = sweep.best_k(n)
            res.check(
                f"best k ∈ small multiples of ports at {format_size(n)}",
                best in (2, 3, 4, 5, 8),
                f"best k = {best}",
            )
    return res


def fig11c_polaris_kring(
    nodes: int = 32,
    sizes: Sequence[int] = (65536, 1 << 20, 4 << 20),
    ks: Sequence[int] = (1, 2, 4, 8, 16),
) -> ExperimentResult:
    """Fig. 11(c): on Polaris the k-ring radix has minimal effect — its
    fully connected NVLink node offers no latency advantage for MPI
    traffic, so intra-group rounds are not meaningfully faster.

    The check contrasts the radix sensitivity ("flatness": max/min latency
    over k) against Frontier's at the same geometry: Polaris must be much
    flatter.
    """
    p_machine = polaris(nodes, 4)
    f_machine = frontier(nodes // 2, 8)  # same rank count
    sizes = list(sizes)
    p_sweep = radix_latency_sweep("bcast", "kring", p_machine, sizes, ks=ks)
    f_sweep = radix_latency_sweep("bcast", "kring", f_machine, sizes,
                                  ks=list(ks) + [8] if 8 not in ks else ks)
    rows = []
    for n in sizes:
        rows.append(
            [format_size(n)]
            + [p_sweep.latency(k, n) for k in ks]
            + [f"{p_sweep.flatness(n):.2f}", f"{f_sweep.flatness(n):.2f}"]
        )
    res = ExperimentResult(
        exp_id="fig11c",
        title=f"MPI_Bcast k-ring on Polaris ({nodes}x4) vs Frontier",
        paper_claim="the k-ring parameter value shows minimal effect on Polaris",
        text=format_table(
            ["size"] + [f"k={k} µs" for k in ks]
            + ["polaris max/min", "frontier max/min"],
            rows,
        ),
        data={"polaris": p_sweep, "frontier": f_sweep},
    )
    for n in sizes:
        res.check(
            f"Polaris flatter than Frontier at {format_size(n)}",
            p_sweep.flatness(n) < f_sweep.flatness(n),
            f"{p_sweep.flatness(n):.2f} vs {f_sweep.flatness(n):.2f}",
        )
    big = max(sizes)
    res.check(
        "k-ring gain over classic ring is modest on Polaris (< 1.4x)",
        p_sweep.latency(1, big) / p_sweep.best_latency(big) < 1.4,
        speedup_str(p_sweep.latency(1, big) / p_sweep.best_latency(big)),
    )
    return res


# ----------------------------------------------------------------------
# Supporting studies
# ----------------------------------------------------------------------

def eq13_data_volume(p: int = 128, nbytes: int = 1 << 20) -> ExperimentResult:
    """Eqs. (13)/(14): k-ring's inter-group traffic ``2n(p-k)/p`` per group
    versus the classic ring's ``2n(p-1)/p`` — verified by counting, per
    k-ring group, the bytes its schedule actually sends across group
    boundaries."""
    from ..core.schedule import OP_SEND  # local import, core only

    rows = []
    checks = []
    # Eq. (13) is derived for uniform groups, so only divisor radices are
    # in scope; uneven remainder groups (k ∤ p) legitimately shift the
    # boundary traffic of individual groups.
    ks = [k for k in (1, 2, 4, 8, 16) if p % k == 0]
    for k in ks:
        sched = build_schedule("allgather", "kring", p, k=k)
        cols = sched.columns()
        sizes = cols.op_sizes(np.asarray(sched.block_map(nbytes).sizes))
        # Bytes group 0 sends + receives across its boundary (all groups
        # are symmetric when k | p).
        sends = np.flatnonzero(cols.kinds == OP_SEND)
        src_g, dst_g = cols.ranks()[sends] // k, cols.peers[sends] // k
        crossing = int(sizes[sends][
            (src_g != dst_g) & ((src_g == 0) | (dst_g == 0))
        ].sum())
        predicted = kring_inter_group_data(nbytes, p, k)
        rel = crossing / predicted if predicted else float("nan")
        rows.append([f"k={k}", crossing, int(predicted), f"{rel:.3f}"])
        checks.append((k, rel))
    ring_pred = ring_inter_group_data(nbytes, p)
    res = ExperimentResult(
        exp_id="eq13",
        title="k-ring inter-group data volume vs eq. (13)",
        paper_claim="k-ring reduces inter-group traffic to 2n(p-k)/p per group",
        text=format_table(
            ["radix", "group-0 boundary bytes (schedule)",
             "eq. (13) prediction", "measured/model"],
            rows,
        ),
        data={"ring_prediction": ring_pred},
    )
    for k, rel in checks:
        res.check(
            f"traffic matches eq. (13) at k={k} (±2%)",
            abs(rel - 1.0) <= 0.02,
            f"ratio {rel:.3f}",
        )
    res.check(
        "eq. (14) is the k=1 case of eq. (13)",
        abs(kring_inter_group_data(nbytes, p, 1) - ring_pred) < 1e-9,
    )
    return res


_MODEL_CASES = [
    ("bcast", "binomial", None),
    ("bcast", "knomial", 4),
    ("bcast", "knomial", 8),
    ("reduce", "binomial", None),
    ("reduce", "knomial", 4),
    ("allgather", "recursive_doubling", None),
    ("allreduce", "recursive_doubling", None),
    ("allreduce", "recursive_multiplying", 4),
    ("allgather", "ring", None),
]


def models_vs_sim(
    p: int = 64, sizes: Sequence[int] = (8, 1024, 65536, 1 << 20)
) -> ExperimentResult:
    """Analytical models (eqs. (1)–(9)) against the reference machine.

    On the reference machine (single port, zero software overheads) the
    simulator realizes the models' assumptions, so agreement should be
    tight for the tree/butterfly algorithms where the paper says the
    models are accurate, and looser where the paper itself notes the
    models idealize (recursive multiplying's overlap, ring allreduce's
    combined-round accounting).
    """
    machine = reference(p)
    params = ModelParams(
        alpha=machine.alpha_inter,
        beta=machine.beta_inter,
        gamma=machine.gamma,
    )
    rows = []
    tight_ratios = []
    for coll, alg, k in _MODEL_CASES:
        sched = build_schedule(coll, alg, p, k=k)
        for n in sizes:
            m_us = model_time(coll, alg, n, p, params, k=k) * 1e6
            s_us = simulate(sched, machine, n).time_us
            ratio = s_us / m_us if m_us else float("nan")
            rows.append(
                [f"{coll}/{alg}" + (f"(k={k})" if k else ""),
                 format_size(n), m_us, s_us, f"{ratio:.2f}"]
            )
            if alg in ("binomial", "recursive_doubling") or (
                alg == "ring" and coll == "allgather"
            ):
                tight_ratios.append(ratio)
    res = ExperimentResult(
        exp_id="models",
        title=f"Analytical model vs simulator (reference machine, p={p})",
        paper_claim="models are fairly accurate for k-nomial; hardware "
                    "effects dominate elsewhere",
        text=format_table(
            ["algorithm", "size", "model µs", "sim µs", "sim/model"], rows
        ),
    )
    res.check(
        "classic-kernel models within 10% on the reference machine",
        all(0.9 <= r <= 1.1 for r in tight_ratios),
        f"ratios {[f'{r:.2f}' for r in tight_ratios]}",
    )
    return res


def variance_study(
    nodes: int = 64,
    nbytes: int = 16384,
    sigma: float = 0.5,
    seeds: Sequence[int] = tuple(range(10)),
    ks: Sequence[int] = (2, 4, 8, 16, 32, 64),
) -> ExperimentResult:
    """§VI-H: run-to-run variance can change the optimal parameter value.

    Re-runs the Fig. 8(a)-style sweep under the lognormal noise model with
    different seeds and reports how often the winning radix changes —
    reproducing why the paper frames its conclusions as heuristics.
    """
    machine = frontier(nodes, 1)
    winners = []
    for seed in seeds:
        noise = NoiseModel(sigma=sigma, seed=seed)
        sweep = radix_latency_sweep(
            "reduce", "knomial", machine, [nbytes], ks=ks, noise=noise
        )
        winners.append(sweep.best_k(nbytes))
    clean = radix_latency_sweep("reduce", "knomial", machine, [nbytes], ks=ks)
    rows = [[f"seed {s}", k] for s, k in zip(seeds, winners)]
    rows.append(["noise-free", clean.best_k(nbytes)])
    res = ExperimentResult(
        exp_id="variance",
        title=f"Optimal radix under run-to-run variance (σ={sigma})",
        paper_claim="variance changes optimal algorithm/parameter selections",
        text=format_table(["trial", "best k"], rows),
        data={"winners": winners},
    )
    res.check(
        "optimal k varies across runs",
        len(set(winners)) > 1,
        f"winners {sorted(set(winners))}",
    )
    res.check(
        "noise-free winner is among noisy winners' neighborhood",
        any(abs(w - clean.best_k(nbytes)) <= clean.best_k(nbytes)
            for w in winners),
    )
    return res


def selection_config(
    nodes: int = 32,
    sizes: Sequence[int] = (8, 128, 2048, 32768, 524288, 4 << 20),
) -> ExperimentResult:
    """§VI-G: generate the tuned selection configuration and show it beats
    both fixed policies across the sweep."""
    machine = frontier(nodes, 1)
    table = tune(machine, sizes).table
    mpich = mpich_policy()
    vendor = vendor_policy()
    from .speedup import policy_latency  # late import, same package

    rows = []
    wins = total = 0
    for coll in ("bcast", "reduce", "allgather", "allreduce"):
        for n in sizes:
            t_tuned = policy_latency(table, coll, machine, n)
            t_mpich = policy_latency(mpich, coll, machine, n)
            t_vendor = policy_latency(vendor, coll, machine, n)
            choice = table.select(coll, machine.nranks, n)
            rows.append(
                [coll, format_size(n), choice.describe(), t_tuned, t_mpich,
                 t_vendor]
            )
            total += 1
            if t_tuned <= min(t_mpich, t_vendor) * 1.001:
                wins += 1
    res = ExperimentResult(
        exp_id="selection",
        title=f"Tuned selection configuration ({machine.name})",
        paper_claim="one configuration file transparently delivers the "
                    "generalized-algorithm speedups",
        text=format_table(
            ["collective", "size", "tuned choice", "tuned µs", "mpich µs",
             "vendor µs"],
            rows,
        ),
        data={"table": table},
    )
    res.check(
        "tuned policy never loses to either fixed policy",
        wins == total,
        f"{wins}/{total} configurations",
    )
    res.check(
        "tuned table selects generalized algorithms somewhere",
        any(
            table.select(c, machine.nranks, n).k not in (None, 1, 2)
            for c in ("bcast", "reduce", "allgather", "allreduce")
            for n in sizes
        ),
    )
    return res


# ----------------------------------------------------------------------
# Helpers and the experiment registry
# ----------------------------------------------------------------------

def _radix_result(
    exp_id: str, title: str, claim: str, sweep: RadixSweep
) -> ExperimentResult:
    rows = []
    for n in sweep.sizes:
        rows.append(
            [format_size(n)]
            + [sweep.latency(k, n) for k in sweep.ks]
            + [f"k={sweep.best_k(n)}"]
        )
    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        paper_claim=claim,
        text=format_table(
            ["size"] + [f"k={k} µs" for k in sweep.ks] + ["best"], rows
        ),
        data={"sweep": sweep},
    )


def _vendor_latency(collective: str, machine, nbytes: int) -> float:
    choice = vendor_policy().select(collective, machine.nranks, nbytes)
    entry = info(collective, choice.algorithm)
    sched = build_schedule(
        collective, choice.algorithm, machine.nranks, k=choice.k
    )
    return simulate(sched, machine, nbytes).time_us


def _mostly_monotone_down(seq: Sequence[int]) -> bool:
    """Non-increasing allowing one local wobble (simulated sweeps are
    discrete; the paper's own curves wobble too)."""
    violations = sum(1 for a, b in zip(seq, seq[1:]) if b > a)
    return violations <= 1


def fig_diagrams() -> ExperimentResult:
    """Figs. 1-6: the paper's algorithm-structure diagrams, regenerated
    from the actual schedules (so they can never drift from the code).

    Checks the structural facts each figure's caption states: Fig. 1's
    binomial tree vs Fig. 2's flatter trinomial tree on 6 processes,
    Fig. 3/4's round counts (2 rounds for 4 ranks at k=2, 2 rounds for 9
    ranks at k=3), and Fig. 6's intra/inter alternation for p=6, k=3.
    """
    from ..core.analysis import critical_path_rounds
    from ..core.render import (
        render_knomial_tree,
        render_kring_rounds,
        render_rounds,
    )

    sections = []
    sections.append("Fig. 1 — binomial gather tree, 6 processes:")
    sections.append(render_knomial_tree(6, 2))
    sections.append("")
    sections.append("Fig. 2 — trinomial tree, 6 processes:")
    sections.append(render_knomial_tree(6, 3))
    sections.append("")
    recdbl = build_schedule("allgather", "recursive_doubling", 4)
    sections.append("Fig. 3 — recursive doubling allgather, 4 processes:")
    sections.append(render_rounds(recdbl))
    sections.append("")
    recmul = build_schedule("allgather", "recursive_multiplying", 9, k=3)
    sections.append("Fig. 4 — recursive multiplying allgather, p=9, k=3:")
    sections.append(render_rounds(recmul))
    sections.append("")
    sections.append("Fig. 6 — k-ring allgather, p=6, k=3:")
    sections.append(render_kring_rounds(6, 3))

    res = ExperimentResult(
        exp_id="figdiagrams",
        title="Paper Figs. 1-6 regenerated from the schedules",
        paper_claim="the algorithm structures of \u00a7III-\u00a7V",
        text="\n".join(sections),
    )
    # Figs. 1-2's caption point: an 8th process deepens the binomial tree
    # to 3 levels, while a trinomial tree holds 9 processes at depth 2.
    res.check(
        "an 8th process deepens the binomial tree (Fig. 1)",
        critical_path_rounds(build_schedule("bcast", "binomial", 8)) == 3
        and critical_path_rounds(build_schedule("bcast", "binomial", 7)) == 2,
    )
    res.check(
        "a trinomial tree holds 9 processes at depth 2 (Fig. 2)",
        critical_path_rounds(build_schedule("bcast", "knomial", 9, k=3)) == 2,
    )
    res.check(
        "Fig. 3: recursive doubling on 4 ranks takes 2 rounds",
        critical_path_rounds(recdbl) == 2,
    )
    res.check(
        "Fig. 4: recursive multiplying on 9 ranks at k=3 takes 2 rounds",
        critical_path_rounds(recmul) == 2,
    )
    kring_text = render_kring_rounds(6, 3)
    round_kinds = [
        line.split("(")[1].split(")")[0]
        for line in kring_text.splitlines()[1:]
    ]
    res.check(
        "Fig. 6: rounds alternate intra,intra,inter,intra,intra",
        round_kinds == ["intra", "intra", "inter", "intra", "intra"],
        str(round_kinds),
    )
    return res


ALL_EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "table1": table1_capability,
    "figdiagrams": fig_diagrams,
    "fig7": fig7_slowdown,
    "fig8a": fig8a_reduce_knomial,
    "fig8b": fig8b_allreduce_recmul,
    "fig8c": fig8c_bcast_kring,
    "fig9a": lambda: fig9_speedup("reduce"),
    "fig9b": lambda: fig9_speedup("bcast"),
    "fig9c": lambda: fig9_speedup("allgather"),
    "fig9d": lambda: fig9_speedup("allreduce"),
    "fig10a": fig10a_scale_reduce,
    "fig10b": lambda: fig10bc_scale_recmul("allgather"),
    "fig10c": lambda: fig10bc_scale_recmul("allreduce"),
    "fig11a": fig11a_polaris_knomial,
    "fig11b": fig11b_polaris_recmul,
    "fig11c": fig11c_polaris_kring,
    "eq13": eq13_data_volume,
    "models": models_vs_sim,
    "variance": variance_study,
    "selection": selection_config,
    **ABLATIONS,
}


def run_experiment(exp_id: str) -> ExperimentResult:
    """Run a paper experiment by id (see :data:`ALL_EXPERIMENTS`)."""
    try:
        fn = ALL_EXPERIMENTS[exp_id]
    except KeyError:
        raise ReproError(
            f"unknown experiment {exp_id!r}; known: "
            f"{', '.join(sorted(ALL_EXPERIMENTS))}"
        ) from None
    return fn()
