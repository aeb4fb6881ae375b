"""repro.check — static analysis of collective schedules (no DES, no data).

The validator (:mod:`repro.core.validate`) proves a schedule computes
the right answer; this package proves it can *run* and that its model
tells the truth, all from the program text alone:

* **deadlock** (:mod:`repro.check.deadlock`) — FIFO channel audit plus
  the schedule's step walk under both eager and rendezvous send semantics,
  reporting the exact wait-for cycle (ranks/steps/ops) on a hang.  A
  schedule clean under rendezvous is deadlock-free at any eager
  threshold.
* **hazards** (:mod:`repro.check.hazards`) — intra-step block-overlap
  races (write-write, read-write, copy hazards), severity-laddered so
  canonical idioms (butterfly send/reduce overlap) inform rather than
  fail.
* **dataflow** (:mod:`repro.check.dataflow`) — contribution-set lint:
  garbage sends/copies, double-counted reductions, postcondition misses,
  reported exhaustively instead of first-failure.
* **model** (:mod:`repro.check.modelcheck`) — the schedule's static
  round count and per-rank byte volume vs. the analytical (α, β) model
  coefficients, with calibrated per-pair divergence bands.

Reports memoize by schedule fingerprint (:mod:`repro.check.cache`), so
sweeps only pay for never-before-seen schedules.  The ``repro-check``
CLI verb (see :mod:`repro.cli`) fronts all of this, and DESIGN.md §12
specifies the semantics in detail.

>>> from repro.core.registry import build_schedule
>>> from repro.check import run_checks
>>> run_checks(build_schedule("allreduce", "ring", 8)).ok
True
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.cache import ContentCache, cached_build_schedule
from ..core.schedule import Schedule
from ..obs import OBS
from .cache import global_check_cache
from .dataflow import check_dataflow
from .deadlock import check_deadlock
from .findings import CheckReport, Finding, SEVERITIES, sort_findings
from .hazards import check_hazards
from .modelcheck import KNOWN_DIVERGENCES, check_model, has_model

__all__ = [
    "Finding",
    "CheckReport",
    "SEVERITIES",
    "run_checks",
    "check_schedule",
    "global_check_cache",
    "KNOWN_DIVERGENCES",
]

#: Default payload size the analyses price blocks at (1 MiB): large
#: enough that block rounding is noise for every registry granularity.
DEFAULT_NBYTES = 1 << 20

_ALL_CHECKS = ("channels", "deadlock", "hazards", "dataflow", "model")


def run_checks(
    schedule: Schedule,
    *,
    nbytes: int = DEFAULT_NBYTES,
    eager_threshold: Optional[int] = None,
    model: bool = True,
    cache: Optional[ContentCache] = None,
) -> CheckReport:
    """Run the full static-analysis suite on one schedule.

    ``eager_threshold`` additionally analyzes the mixed send regime
    (payloads ``<= threshold`` bytes eager, larger rendezvous); the
    eager and rendezvous extremes always run.  ``model=False`` skips the
    model-consistency lint (useful for hand-built schedules no registry
    model describes — those are skipped anyway, but the flag also
    silences the report metadata note).

    Results are memoized in ``cache`` (default: the process-global
    :func:`global_check_cache`) under the schedule's content
    fingerprint, so re-checking a seen schedule is a dictionary lookup.
    """
    if cache is None:
        cache = global_check_cache()
    fingerprint = schedule.fingerprint()
    key = (fingerprint, int(nbytes), eager_threshold)
    report, _ = cache.get_or_make(
        key,
        lambda: _analyze(
            schedule,
            fingerprint=fingerprint,
            nbytes=nbytes,
            eager_threshold=eager_threshold,
            model=model,
        ),
    )
    return report


def _analyze(
    schedule: Schedule,
    *,
    fingerprint: str,
    nbytes: int,
    eager_threshold: Optional[int],
    model: bool,
) -> CheckReport:
    findings: List[Finding] = []
    checks: List[str] = ["channels", "deadlock", "hazards"]
    meta = {}

    findings.extend(
        check_deadlock(
            schedule, nbytes=nbytes, eager_threshold=eager_threshold
        )
    )
    findings.extend(check_hazards(schedule))

    # The dataflow and model passes evaluate the schedule in its eager
    # step walk; an unmatched channel or a deadlock makes that walk
    # abort, so they only run on executable schedules.
    executable = not any(f.severity == "error" for f in findings)
    if executable:
        checks.append("dataflow")
        findings.extend(check_dataflow(schedule))
    else:
        meta["skipped"] = ["dataflow"] + (["model"] if model else [])
    if model and executable:
        checks.append("model")
        if has_model(schedule.collective, schedule.algorithm):
            findings.extend(check_model(schedule, nbytes))
        else:
            meta["model"] = "none registered for this pair"

    report = CheckReport(
        schedule=schedule.describe(),
        fingerprint=fingerprint,
        nbytes=int(nbytes),
        findings=sort_findings(findings),
        checks=tuple(checks),
        eager_threshold=eager_threshold,
        meta=meta,
    )
    if OBS.enabled:
        OBS.metrics.counter(
            "repro_check_runs_total",
            outcome="ok" if report.ok else "fail",
        ).inc()
        for finding in report.findings:
            OBS.metrics.counter(
                "repro_check_findings_total",
                code=finding.code,
                severity=finding.severity,
            ).inc()
    return report


def check_schedule(
    collective: str,
    algorithm: str,
    p: int,
    *,
    k: Optional[int] = None,
    root: int = 0,
    nbytes: int = DEFAULT_NBYTES,
    eager_threshold: Optional[int] = None,
) -> CheckReport:
    """Build (cached) and check one registry configuration.

    >>> check_schedule("allreduce", "recursive_multiplying", 16, k=4).ok
    True
    """
    schedule = cached_build_schedule(collective, algorithm, p, k=k, root=root)
    return run_checks(
        schedule, nbytes=nbytes, eager_threshold=eager_threshold
    )
