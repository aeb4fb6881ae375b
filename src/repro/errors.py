"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish schedule construction problems from
verification failures or simulator misconfiguration.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

__all__ = [
    "ReproError",
    "ScheduleError",
    "ValidationError",
    "ExecutionError",
    "MachineError",
    "SelectionError",
    "ModelError",
    "TraceError",
    "ObsError",
    "StoreError",
    "ServerError",
    "FaultError",
    "PartialFailure",
    "RecoveryError",
    "AdaptError",
    "CompileError",
    "ClassAnalysisError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ScheduleError(ReproError):
    """Raised when a collective schedule cannot be constructed.

    Typical causes: invalid radix (``k < 1``), a root rank outside
    ``[0, p)``, or an unknown (collective, algorithm) pair.
    """


class ValidationError(ReproError):
    """Raised when a schedule fails symbolic verification.

    Carries enough context (rank, block, step index) to debug the
    offending schedule; see :mod:`repro.core.validate`.
    """


class ExecutionError(ReproError):
    """Raised when an executor cannot run a schedule.

    Examples: unmatched send/receive pairs, buffer shape mismatches, or a
    deadlocked threaded execution.
    """


class MachineError(ReproError):
    """Raised for inconsistent machine specifications.

    Examples: zero ports on a multi-node machine, negative latency, or a
    rank count that does not fit the node/ppn geometry.
    """


class SelectionError(ReproError):
    """Raised when an algorithm selection table is malformed or has no
    entry covering a requested (collective, nranks, nbytes) triple."""


class ModelError(ReproError):
    """Raised when an analytical model is evaluated outside its domain
    (e.g. ``p < 2`` or a radix the model does not define)."""


class TraceError(ReproError):
    """Raised when timeline/trace analysis is asked for data that was
    never collected — e.g. :func:`repro.simnet.trace.timeline_stats` on a
    :class:`~repro.simnet.simulate.SimResult` simulated without
    ``collect_timeline=True``.  A result-shape problem, not a machine
    misconfiguration (it was historically misfiled as
    :class:`MachineError`)."""


class ObsError(ReproError):
    """Raised for observability misuse: mismatched metric kinds on one
    name, malformed histogram buckets, or attaching a simnet timeline
    outside any span."""


class StoreError(ReproError):
    """Raised for durability-layer misuse: an unwritable store root, a
    journal resumed against a different sweep configuration, or a store
    opened with an incompatible on-disk format version.

    Note the deliberate asymmetry with *damage*: corruption found inside
    the store (bad checksum, truncated entry, stray temp file) is never
    raised — damaged entries are quarantined and rebuilt, and a torn
    journal tail is skipped.  Only caller errors surface as exceptions.
    """


class ServerError(ReproError):
    """The tuning service could not satisfy a request.

    Raised by :mod:`repro.server` for service misuse on either side of
    the wire: a malformed or unroutable HTTP request, a query for a
    compiled artifact under an unknown fingerprint, a client that cannot
    reach (or parse a response from) the server, or a service
    constructed over an empty size grid.  Selection misses keep raising
    :class:`SelectionError` — the error classes travel through the HTTP
    boundary by name so clients can tell "no rule covers this point"
    from "the service is broken".
    """


class FaultError(ExecutionError):
    """An injected fault an execution backend could not mask.

    Structured: carries the failing rank, the step it was executing, the
    peer it was exchanging with, the per-link message sequence number, and
    how many (re)transmission attempts were made before giving up — the
    "which op, which peer, how many retries" diagnosis the chaos harness
    asserts on.  ``kind`` is one of ``"retries_exhausted"``, ``"crash"``,
    ``"timeout"``, or ``"aborted"``.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "fault",
        rank: Optional[int] = None,
        step: Optional[int] = None,
        peer: Optional[int] = None,
        seq: Optional[int] = None,
        retries: Optional[int] = None,
    ) -> None:
        # Fold the structured context into the message itself so a bare
        # str(exc) — a log line, a CI failure — already says what died
        # where, without the caller digging through attributes.
        context = []
        if rank is not None:
            context.append(f"rank {rank}")
        if step is not None:
            context.append(f"step {step}")
        if peer is not None:
            context.append(f"peer {peer}")
        if seq is not None:
            context.append(f"seq {seq}")
        if retries is not None:
            context.append(f"{retries} retry attempt(s)")
        if context:
            message = f"{message} [{kind}: {', '.join(context)}]"
        super().__init__(message)
        self.kind = kind
        self.rank = rank
        self.step = step
        self.peer = peer
        self.seq = seq
        self.retries = retries

    def diagnosis(self) -> str:
        """One-line machine-parseable summary of the structured fields."""
        parts = [f"kind={self.kind}"]
        for label in ("rank", "step", "peer", "seq", "retries"):
            value = getattr(self, label)
            if value is not None:
                parts.append(f"{label}={value}")
        return " ".join(parts)


class PartialFailure(ExecutionError):
    """A run that some ranks completed and others did not.

    Raised by the threaded transport (and the chaos harness) when injected
    crashes or exhausted retries take down part of the job while the rest
    either finished or aborted cleanly.  ``faults`` holds the per-rank
    :class:`FaultError` diagnoses; ``failed_ranks`` the ranks that hit a
    primary fault; ``stalled_ranks`` the ranks that were dragged down
    waiting on a failed peer.
    """

    def __init__(
        self,
        message: str,
        *,
        failed_ranks: Sequence[int] = (),
        stalled_ranks: Sequence[int] = (),
        faults: Sequence["FaultError"] = (),
    ) -> None:
        bits = []
        if failed_ranks:
            bits.append(f"failed ranks {sorted(failed_ranks)}")
        if stalled_ranks:
            bits.append(f"stalled ranks {sorted(stalled_ranks)}")
        if faults:
            bits.append("; ".join(f.diagnosis() for f in faults))
        detail = f" [{'; '.join(bits)}]" if bits else ""
        super().__init__(message + detail)
        self.failed_ranks: Tuple[int, ...] = tuple(failed_ranks)
        self.stalled_ranks: Tuple[int, ...] = tuple(stalled_ranks)
        self.faults: Tuple[FaultError, ...] = tuple(faults)


class RecoveryError(ExecutionError):
    """Self-healing gave up: the failure could not be recovered.

    Raised by :mod:`repro.recovery` when the policy is ``abort``, when the
    retry budget (``max_rounds``) is exhausted, when the survivor set
    shrinks below ``min_ranks``, or when a failure destroys data no
    survivor holds (a dead bcast/scatter root with no spare to adopt its
    checkpoint).  ``report`` carries the full
    :class:`~repro.recovery.policy.RecoveryReport` accumulated up to the
    point of surrender — every detected failure, shrink round, and rebuilt
    schedule fingerprint.
    """

    def __init__(self, message: str, *, report=None) -> None:
        super().__init__(message)
        self.report = report


class ClassAnalysisError(ReproError):
    """Rank-equivalence-class analysis found a schedule it cannot collapse.

    Raised by :mod:`repro.compile.classes` when the computed partition
    violates a soundness invariant the collapsed simulator relies on
    (e.g. one class's matched sends land in more than one receiver class,
    or two members of a class target the same receiver).  The engine
    dispatcher in :mod:`repro.simnet.simulate` treats this as an
    asymmetric input and falls back to the materialized engine — the
    error never escapes ``simulate(engine="auto")``.
    """


class AdaptError(ReproError):
    """The online adaptive-selection loop could not run or gave up.

    Raised by :mod:`repro.adapt` on misconfiguration (no candidates, a
    non-positive round count, malformed phased plans) and by surfaces
    that treat a ladder ``abort`` as fatal — the loop itself never
    raises on abort; it returns a report with ``aborted=True`` so
    callers can degrade gracefully.
    """


class CompileError(ReproError):
    """A compiled program failed self-verification against its source IR.

    Raised by :mod:`repro.compile` when lowering produces tables that
    disagree with the schedule (a compiler bug) or when a cached/disk
    artifact is corrupt — stale peer tables, off-by-one block offsets,
    shifted step boundaries, wrong op codes.  The message always names
    the offending rank and step so the mutation corpus (and a human
    reading CI) can see *where* the tables went wrong.  A corrupt
    artifact must be caught here; it never executes.
    """
