"""Registry-wide static-analysis sweep (the ``repro-check --all`` gate).

Runs :func:`repro.check.run_checks` over every registered
``(collective, algorithm)`` pair across the acceptance grid —
``p ∈ {2..17, 32, 64}`` (through every non-power corner up to 17, then
the two scale points) × ``k ∈ {2..8}`` clamped to each algorithm's
``min_k``/:func:`~repro.core.registry.max_radix` — and reports one
record per configuration.

Parallelism follows the repo's determinism contract
(:mod:`repro.parallel`): points are chunked per (collective, algorithm)
pair, the worker is a module-level picklable function, and results come
back in chunk-submission order, so the sweep output is bit-identical at
any ``--jobs`` level.  Each worker process grows its own schedule/check
caches; within a chunk the fingerprint memo already collapses repeated
content (e.g. clamped radices aliasing the same schedule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..check import DEFAULT_NBYTES, check_schedule
from ..core.registry import _REGISTRY, max_radix
from ..errors import ReproError
from ..parallel import run_chunks

__all__ = [
    "CheckPoint",
    "CheckRecord",
    "default_grid",
    "grid_points",
    "run_check_sweep",
    "summarize_check_sweep",
]

#: The acceptance grid: every count through the non-power corners up to
#: 17, plus the 32- and 64-rank scale points.
DEFAULT_PS: Tuple[int, ...] = tuple(range(2, 18)) + (32, 64)

#: Radix grid; clamped per algorithm to [min_k, max_radix].
DEFAULT_KS: Tuple[int, ...] = tuple(range(2, 9))


@dataclass(frozen=True)
class CheckPoint:
    """One sweep configuration to analyze.

    ``engine="collapsed"`` additionally runs the rank-equivalence-class
    analysis (:func:`repro.compile.classify`) on a symmetric reference
    machine and records the class count — still purely static: the
    analysis verifies the relabeling-bijection invariants without ever
    touching the simulator.
    """

    collective: str
    algorithm: str
    p: int
    k: Optional[int] = None
    nbytes: int = DEFAULT_NBYTES
    eager_threshold: Optional[int] = None
    engine: str = "materialized"


@dataclass(frozen=True)
class CheckRecord:
    """One analyzed configuration: verdict plus finding counts.

    ``error`` carries a build/analysis crash (registry rejected the
    parameters, say); such records fail the sweep like finding errors
    do.  ``findings`` holds the serialized findings for failing points
    only — clean points stay light so the full-grid JSON is readable.
    """

    collective: str
    algorithm: str
    p: int
    k: Optional[int]
    ok: bool
    errors: int = 0
    warnings: int = 0
    infos: int = 0
    findings: Tuple[Dict[str, object], ...] = ()
    error: Optional[str] = None
    nclasses: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (stable keys)."""
        out: Dict[str, object] = {
            "collective": self.collective,
            "algorithm": self.algorithm,
            "p": self.p,
            "k": self.k,
            "ok": self.ok,
            "errors": self.errors,
            "warnings": self.warnings,
            "infos": self.infos,
        }
        if self.findings:
            out["findings"] = [dict(f) for f in self.findings]
        if self.error is not None:
            out["error"] = self.error
        if self.nclasses is not None:
            out["nclasses"] = self.nclasses
        return out


def default_grid(
    entry, ps: Sequence[int] = DEFAULT_PS, ks: Sequence[int] = DEFAULT_KS
) -> List[Tuple[int, Optional[int]]]:
    """The (p, k) configurations to check for one registry entry.

    Radices are clamped to ``[min_k, max_radix(p)]`` then deduplicated,
    so e.g. k ∈ {2..8} at p = 4 collapses to {2, 3, 4}.
    """
    points: List[Tuple[int, Optional[int]]] = []
    for p in ps:
        if not entry.takes_k:
            points.append((p, None))
            continue
        cap = max_radix(entry.collective, entry.name, p)
        seen = set()
        for k in ks:
            kk = min(max(k, entry.min_k), cap)
            if kk not in seen:
                seen.add(kk)
                points.append((p, kk))
        # min_k below the sweep floor (k-ring's group size 1 = classic
        # ring) is part of the surface; include it explicitly.
        if entry.min_k < min(ks) and entry.min_k not in seen:
            points.append((p, entry.min_k))
    return points


def grid_points(
    ps: Sequence[int] = DEFAULT_PS,
    ks: Sequence[int] = DEFAULT_KS,
    *,
    nbytes: int = DEFAULT_NBYTES,
    eager_threshold: Optional[int] = None,
    collective: Optional[str] = None,
    algorithm: Optional[str] = None,
    engine: str = "materialized",
) -> List[CheckPoint]:
    """Expand the registry × grid into concrete sweep points."""
    points: List[CheckPoint] = []
    for (coll, alg), entry in sorted(_REGISTRY.items()):
        if collective is not None and coll != collective:
            continue
        if algorithm is not None and alg != algorithm:
            continue
        for p, k in default_grid(entry, ps, ks):
            points.append(
                CheckPoint(
                    collective=coll,
                    algorithm=alg,
                    p=p,
                    k=k,
                    nbytes=nbytes,
                    eager_threshold=eager_threshold,
                    engine=engine,
                )
            )
    return points


def _check_chunk(points: Sequence[CheckPoint]) -> List[CheckRecord]:
    """Worker: analyze one chunk of points, isolating per-point errors."""
    records: List[CheckRecord] = []
    for pt in points:
        try:
            report = check_schedule(
                pt.collective,
                pt.algorithm,
                pt.p,
                k=pt.k,
                nbytes=pt.nbytes,
                eager_threshold=pt.eager_threshold,
            )
        except ReproError as exc:
            records.append(
                CheckRecord(
                    collective=pt.collective,
                    algorithm=pt.algorithm,
                    p=pt.p,
                    k=pt.k,
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        nclasses = None
        if pt.engine == "collapsed":
            try:
                nclasses = _classify_point(pt)
            except ReproError as exc:
                records.append(
                    CheckRecord(
                        collective=pt.collective,
                        algorithm=pt.algorithm,
                        p=pt.p,
                        k=pt.k,
                        ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
        records.append(
            CheckRecord(
                collective=pt.collective,
                algorithm=pt.algorithm,
                p=pt.p,
                k=pt.k,
                ok=report.ok,
                errors=report.errors,
                warnings=report.warnings,
                infos=report.infos,
                findings=tuple(
                    f.to_dict()
                    for f in report.findings
                    if f.severity == "error"
                )
                if not report.ok
                else (),
                nclasses=nclasses,
            )
        )
    return records


def _classify_point(pt: CheckPoint) -> int:
    """Class count for one grid point on a symmetric reference machine.

    Purely static: :func:`repro.compile.classes.rank_classes` (the
    lookup a collapsed ``simulate`` makes) verifies the peer-relabeling
    bijection invariants while partitioning, so a point that survives
    this call is proven safe for the collapsed simulation core —
    without ever running it.
    """
    from ..compile.classes import rank_classes
    from ..core.cache import global_schedule_cache
    from ..simnet.machines import reference

    schedule, _ = global_schedule_cache().get_or_build(
        pt.collective, pt.algorithm, pt.p, k=pt.k, root=0
    )
    return rank_classes(schedule, reference(pt.p), pt.nbytes).nclasses


def run_check_sweep(
    points: Sequence[CheckPoint], *, jobs: int = 0
) -> List[CheckRecord]:
    """Analyze every point, chunked per (collective, algorithm) pair.

    Deterministic at any ``jobs`` level: chunks are formed in sorted
    point order and :func:`repro.parallel.run_chunks` flattens results
    in submission order.
    """
    chunks: List[List[CheckPoint]] = []
    current_pair: Optional[Tuple[str, str]] = None
    for pt in points:
        pair = (pt.collective, pt.algorithm)
        if pair != current_pair:
            chunks.append([])
            current_pair = pair
        chunks[-1].append(pt)
    return run_chunks(_check_chunk, chunks, jobs=jobs)


def summarize_check_sweep(records: Sequence[CheckRecord]) -> Dict[str, object]:
    """Aggregate a sweep into the verdict dict the CLI/CI report prints."""
    failing = [r for r in records if not r.ok]
    by_pair: Dict[str, int] = {}
    for r in failing:
        key = f"{r.collective}/{r.algorithm}"
        by_pair[key] = by_pair.get(key, 0) + 1
    out: Dict[str, object] = {
        "points": len(records),
        "ok": len(records) - len(failing),
        "failing": len(failing),
        "warnings": sum(r.warnings for r in records),
        "infos": sum(r.infos for r in records),
        "failing_by_pair": dict(sorted(by_pair.items())),
    }
    classified = [r for r in records if r.nclasses is not None]
    if classified:
        # --engine collapsed: how hard the grid collapses — the ratio
        # is the sublinearity the batched core buys on this grid.
        out["classes"] = {
            "points": len(classified),
            "total_ranks": sum(r.p for r in classified),
            "total_classes": sum(r.nclasses for r in classified),
        }
    return out
