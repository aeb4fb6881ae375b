"""Exhaustive tuner: sweep the simulator, emit a selection config (§VI-G).

The paper "exhaustively benchmarked every algorithm in MPICH to determine
the optimal algorithm-parameters" and distilled the result into a new
MPICH selection configuration.  This module does the same against the
simulated machine: sweep every registered algorithm (generalized ones over
a radix grid) across a message-size grid, take the argmin per size, and
merge adjacent sizes with identical winners into compact byte-range rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.registry import algorithms_for, info
from ..errors import SelectionError
from ..faults.plan import FaultPlan
from ..simnet.machine import MachineSpec
from ..simnet.noise import NoiseModel
from .table import Choice, PriorKey, Rule, SelectionConfig, SelectionTable

__all__ = [
    "DEFAULT_COLLECTIVES",
    "radix_grid",
    "sweep_points",
    "sweep_collective",
    "SweepEntry",
    "config_from_sweeps",
    "tune",
]

#: The collectives :func:`tune` (and the tuning service) sweeps by
#: default — the four the paper tunes in §VI-G.
DEFAULT_COLLECTIVES: Tuple[str, ...] = (
    "bcast", "reduce", "allgather", "allreduce"
)


def radix_grid(p: int, *, min_k: int = 2, extras: Sequence[int] = (3, 5)) -> List[int]:
    """The radix grid the paper's sweeps use: powers of two from ``min_k``
    through ``p``, plus ``p`` itself and the odd near-optimal radices.

    >>> radix_grid(16)
    [2, 3, 4, 5, 8, 16]
    >>> radix_grid(8, min_k=1)
    [1, 2, 3, 4, 5, 8]
    """
    if p < 1:
        raise SelectionError(f"p must be >= 1, got {p}")
    grid = set()
    k = max(min_k, 1)
    while k <= p:
        grid.add(k)
        k *= 2
    grid.add(max(p, min_k))
    for extra in extras:
        if min_k <= extra <= p:
            grid.add(extra)
    return sorted(grid)


@dataclass(frozen=True)
class SweepEntry:
    """One simulated configuration."""

    choice: Choice
    nbytes: int
    time: float  # seconds


@dataclass
class SweepResult:
    """All configurations simulated for one collective on one machine."""

    collective: str
    machine: str
    entries: List[SweepEntry] = field(default_factory=list)

    def best(self, nbytes: int) -> SweepEntry:
        candidates = [e for e in self.entries if e.nbytes == nbytes]
        if not candidates:
            raise SelectionError(
                f"no sweep entries for {self.collective} at n={nbytes}"
            )
        return min(candidates, key=lambda e: e.time)

    def times_for(self, choice: Choice) -> Dict[int, float]:
        return {
            e.nbytes: e.time
            for e in self.entries
            if e.choice == choice
        }


def sweep_points(
    collective: str,
    machine: MachineSpec,
    sizes: Sequence[int],
    *,
    algorithms: Optional[Sequence[str]] = None,
    root: int = 0,
    skip: Sequence[str] = ("linear",),
) -> List["SweepPoint"]:
    """The exact point grid :func:`sweep_collective` would simulate.

    One :class:`~repro.bench.sweep.SweepPoint` per (algorithm, radix,
    size) combination, in the tuner's deterministic enumeration order —
    generalized algorithms expand over :func:`radix_grid`, fixed-radix
    ones contribute a single ``k=None`` row.  Factored out of
    :func:`sweep_collective` so other layers can agree with the tuner
    about *which* sweep a query implies without running it: the tuning
    service keys its single-flight request coalescing on
    :func:`repro.bench.sweep.sweep_fingerprint` over this list, so N
    concurrent identical ``/tune`` queries hash to one sweep.
    """
    from ..bench.sweep import SweepPoint
    from ..simnet.machines import resolve as resolve_machine

    machine = resolve_machine(machine)
    p = machine.nranks
    names = list(algorithms) if algorithms else algorithms_for(collective)
    points: List[SweepPoint] = []
    for name in names:
        if name in skip:
            continue
        entry = info(collective, name)
        if entry.takes_k:
            ks: List[Optional[int]] = list(
                radix_grid(p, min_k=entry.min_k)
            )
        else:
            ks = [None]
        for k in ks:
            for nbytes in sizes:
                points.append(
                    SweepPoint(
                        collective,
                        name,
                        nbytes,
                        k=k,
                        root=root if entry.takes_root else 0,
                    )
                )
    return points


def sweep_collective(
    collective: str,
    machine: MachineSpec,
    sizes: Sequence[int],
    *,
    algorithms: Optional[Sequence[str]] = None,
    root: int = 0,
    noise: Optional[NoiseModel] = None,
    faults: Optional["FaultPlan"] = None,
    skip: Sequence[str] = ("linear",),
    jobs: int = 0,
    check: bool = False,
    engine: str = "auto",
    priors: Optional[Mapping[Tuple, float]] = None,
) -> SweepResult:
    """Simulate every (algorithm, radix, size) combination.

    ``skip`` drops algorithms never worth tuning over (linear is
    quadratically bad at these scales); pass ``skip=()`` to include them.
    ``jobs >= 2`` fans the grid out over the parallel sweep engine
    (:func:`repro.bench.sweep.run_sweep`); the winners are provably
    independent of ``jobs`` (see ``tests/test_selection.py``).
    ``faults`` sweeps under a fault plan — degraded-mode tuning: the
    winners then reflect link delay/bandwidth penalties, which is how
    recovery re-picks ``(algorithm, k)`` after a degradation
    (:func:`repro.recovery.retune.retune_degraded`).
    ``check=True`` statically analyzes every distinct (algorithm, radix)
    schedule through :mod:`repro.check` before any simulation and
    refuses to tune over one with error findings — a table must never
    recommend a schedule that deadlocks or corrupts data.  Reports
    memoize by fingerprint, so the pre-pass costs each schedule once.
    ``engine`` selects the simulation core per point
    (:data:`~repro.simnet.simulate.ENGINES`) — result-transparent, so
    tables tuned under ``"collapsed"`` match tables tuned under
    ``"materialized"`` bit for bit.  ``machine`` may be a registry name
    (:func:`repro.simnet.machines.get`).
    ``priors`` warm-starts the sweep from recorded timings — a mapping
    from ``(collective, algorithm, k, root, nbytes)`` to seconds, as
    exported by
    :meth:`repro.selection.SelectionConfig.sweep_priors` — and only the
    points *absent* from it are simulated.  Simulated times are
    deterministic, so a prior recorded on the same machine equals what
    re-simulation would produce and the entries (and every winner
    derived from them) are bit-identical to a cold sweep; priors only
    apply to healthy sweeps (they are ignored under ``noise``/``faults``,
    whose times they do not describe).
    """
    # Imported lazily: repro.bench.sweep imports radix_grid from this
    # module at import time, so the reverse dependency must resolve at
    # call time to keep the module graph acyclic.
    from ..bench.sweep import run_sweep, sweep_errors
    from ..simnet.machines import resolve as resolve_machine

    machine = resolve_machine(machine)
    p = machine.nranks
    result = SweepResult(collective=collective, machine=machine.name)
    points = sweep_points(
        collective, machine, sizes,
        algorithms=algorithms, root=root, skip=skip,
    )
    if check:
        from ..check import check_schedule

        seen: set = set()
        for point in points:
            config = (point.algorithm, point.k, point.root)
            if config in seen:
                continue
            seen.add(config)
            report = check_schedule(
                collective, point.algorithm, p, k=point.k, root=point.root
            )
            if not report.ok:
                raise SelectionError(
                    f"refusing to tune over a broken schedule: "
                    f"{report.describe(max_findings=3)}"
                )
    known: Dict[int, float] = {}
    if priors and noise is None and faults is None:
        for i, pt in enumerate(points):
            time = priors.get(
                (pt.collective, pt.algorithm, pt.k, pt.root, pt.nbytes)
            )
            if time is not None:
                known[i] = float(time)
    missing = [pt for i, pt in enumerate(points) if i not in known]
    if missing:
        results = run_sweep(missing, machine, jobs=jobs, noise=noise,
                            faults=faults, engine=engine)
        errors = sweep_errors(results)
        if errors:
            raise SelectionError(
                f"{collective} sweep: {len(errors)} point(s) failed: "
                + "; ".join(errors[:4])
            )
    else:
        results = []
    # Reassemble in the full enumeration order so entries — and every
    # winner derived from them — are position-identical to a cold sweep.
    simulated = iter(results)
    for i, pt in enumerate(points):
        time = known[i] if i in known else next(simulated).time
        result.entries.append(
            SweepEntry(
                choice=Choice(pt.algorithm, pt.k),
                nbytes=pt.nbytes,
                time=time,
            )
        )
    return result


def config_from_sweeps(
    machine,
    sizes: Sequence[int],
    sweeps: Mapping[str, SweepResult],
    *,
    name: Optional[str] = None,
) -> SelectionConfig:
    """Distill per-collective sweeps into the selection-config document.

    The merge step of :func:`tune`, exposed so any source of
    :class:`SweepResult` values — a fresh sweep, a tuning-service merge
    of incremental ``/tune`` results, or timings replayed from an
    exported document — distills to the *same* document the one-shot
    tuner would emit.  Per collective: winner per size, then adjacent
    sizes with identical winners merge into one rule.  The byte-range
    boundaries sit at the sweep sizes themselves (the winner measured at
    size ``s`` governs ``[s, next_s)``), the first rule extends to 0 and
    the last is unbounded — matching how MPICH cutoff tables are
    written — plus the standard fallbacks.  Every sweep entry becomes
    one timing row.  ``sweeps`` maps collective name to its
    :class:`SweepResult`; iteration order becomes rule order, so pass
    an ordered mapping.
    """
    from ..simnet.machines import resolve as resolve_machine

    machine = resolve_machine(machine)
    sorted_sizes = sorted(set(int(s) for s in sizes))
    if not sorted_sizes:
        raise SelectionError("a selection config needs at least one size")
    table = SelectionTable(name=name or f"tuned-{machine.name}")
    timings: List[Dict] = []
    for collective, sweep in sweeps.items():
        winners: List[Tuple[int, Choice]] = [
            (n, sweep.best(n).choice) for n in sorted_sizes
        ]
        # Merge runs of identical winners into byte ranges.
        runs: List[Tuple[int, Optional[int], Choice]] = []
        start_idx = 0
        for i in range(1, len(winners) + 1):
            if i == len(winners) or winners[i][1] != winners[start_idx][1]:
                lo = 0 if start_idx == 0 else winners[start_idx][0]
                hi = None if i == len(winners) else winners[i][0]
                runs.append((lo, hi, winners[start_idx][1]))
                start_idx = i
        for lo, hi, choice in runs:
            table.add(
                Rule(
                    collective,
                    choice,
                    min_bytes=lo,
                    max_bytes=hi,
                )
            )
        timings.extend(
            {
                "collective": collective,
                "algorithm": entry.choice.algorithm,
                "k": entry.choice.k,
                "root": 0,
                "nbytes": entry.nbytes,
                "time": entry.time,
            }
            for entry in sweep.entries
        )
    table.fallback["gather"] = Choice("binomial")
    table.fallback["scatter"] = Choice("binomial")
    table.fallback["reduce_scatter"] = Choice("recursive_halving")
    table.fallback["barrier"] = Choice("dissemination")
    table.fallback["alltoall"] = Choice("pairwise")
    return SelectionConfig(
        table=table,
        machine=machine.name,
        nranks=machine.nranks,
        sizes=sorted_sizes,
        collectives=tuple(sweeps),
        timings=timings,
    )


def tune(
    machine: MachineSpec,
    sizes: Sequence[int],
    *,
    collectives: Sequence[str] = DEFAULT_COLLECTIVES,
    name: Optional[str] = None,
    jobs: int = 0,
    check: bool = False,
    engine: str = "auto",
    priors: Optional[Mapping[PriorKey, float]] = None,
) -> SelectionConfig:
    """Sweep ``machine`` and return its selection-config document.

    Runs :func:`sweep_collective` for every collective over the size
    grid and distills the sweeps with :func:`config_from_sweeps`; the
    rule list is the document's ``.table``.

    ``jobs`` parallelizes the underlying sweeps without affecting the
    chosen winners: times are bit-identical to the serial sweep, so the
    argmin per size — and therefore the document — cannot change.
    ``check=True`` gates every candidate schedule through the static
    analysis suite first (see :func:`sweep_collective`).
    Documents are identical under any ``engine`` (the CLI's ``--engine``)
    too: the collapsed core is bit-identical where eligible and falls
    back where not, so it can only change tuning wall-clock, never a
    winner.  And so are they under ``priors`` (a previous document's
    :meth:`~repro.selection.table.SelectionConfig.sweep_priors`): points
    covered by a recorded timing are served from it instead of
    re-simulated, which is the tuning service's warm start — an exported
    document round-trips into a bit-identical one at a fraction of the
    cold cost.
    """
    from ..simnet.machines import resolve as resolve_machine

    machine = resolve_machine(machine)
    sorted_sizes = sorted(set(int(s) for s in sizes))
    sweeps: Dict[str, SweepResult] = {}
    for collective in collectives:
        sweeps[collective] = sweep_collective(
            collective, machine, sorted_sizes,
            jobs=jobs, check=check, engine=engine, priors=priors,
        )
    return config_from_sweeps(machine, sorted_sizes, sweeps, name=name)
