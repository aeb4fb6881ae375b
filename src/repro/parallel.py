"""Deterministic, crash-hardened process-pool fan-out for the sweeps.

Simulation sweeps are embarrassingly parallel — every point is a pure
function of (schedule parameters, machine, size, noise, faults) — but
the paper-reproduction contract demands that parallelism never change a
result: a sweep at ``--jobs 8`` must be *bit-identical* to the serial
run, including the order results are reported in.

:func:`run_chunks` provides exactly that, and (since the durability PR)
survives the pool itself failing:

* **Determinism** — results are flattened in chunk-submission order
  regardless of which worker finished first, and ``jobs <= 1``
  degenerates to a plain in-process loop running the very same worker
  function, so the serial and parallel paths cannot drift apart.
* **Broken-pool recovery** — a worker death (OOM kill, segfault,
  ``os._exit``) used to poison the whole
  :class:`~concurrent.futures.ProcessPoolExecutor` and lose every
  sibling chunk.  Now the completed chunks are harvested, a fresh pool
  is built, and the unfinished chunks are re-dispatched with a bounded
  retry budget (``retries`` shared-pool generations).
* **Poison quarantine** — a chunk still failing after the shared
  generations is retried *alone* in a single-worker pool (precise
  attribution: in a shared pool every in-flight chunk of a broken
  generation looks guilty), then split into sub-chunks via the caller's
  ``split`` hook to corner the poison item, and finally handed to
  ``on_chunk_error`` to be recorded as structured error results while
  the rest of the run continues.
* **Deadlines** — ``deadline`` bounds how long the parent will stall on
  a generation with nothing completing; a hung worker is terminated and
  its chunk follows the retry/quarantine path instead of hanging the
  sweep forever.

Error isolation *within* a healthy worker remains the worker's job (a
raised exception costs a retry cycle here) — sweep workers therefore
still return per-point error records instead of raising; see
:func:`repro.bench.sweep._run_chunk`.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, TypeVar

from .obs import OBS

__all__ = ["resolve_jobs", "run_chunks", "ChunkFailure"]

T = TypeVar("T")
R = TypeVar("R")


def _available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``--jobs`` request: 0/1 → serial, negative → all cores.

    Requests above the available core count are clamped down to it: the
    sweeps are CPU-bound pure computation, so extra workers beyond the
    cores that can run them only add fork/pickle overhead (and, on a
    single-core host, lose the cross-point simulation memo to boot).
    Thanks to the determinism contract the clamp is invisible in the
    results — only in the wall clock.  Callers that need worker
    *processes* for crash isolation rather than speed pass
    ``isolate=True`` to :func:`run_chunks`, which bypasses this clamp.
    """
    cores = _available_cpus()
    if jobs < 0:
        return cores
    return min(jobs, cores)


class ChunkFailure(Exception):
    """Terminal failure of one chunk after the full retry ladder.

    Passed to ``on_chunk_error`` (or raised, when no handler is given)
    with the mechanical story of what happened: the failure ``kind``
    (``"crash"``, ``"timeout"``, or ``"error"``), the ``attempts``
    consumed, and the final underlying exception as ``cause``.
    """

    def __init__(self, kind: str, attempts: int,
                 cause: Optional[BaseException] = None) -> None:
        super().__init__(kind, attempts, cause)
        self.kind = kind
        self.attempts = attempts
        self.cause = cause

    def __str__(self) -> str:
        cause = ""
        if self.cause is not None:
            cause = f": {type(self.cause).__name__}: {self.cause}"
        return (
            f"chunk failed ({self.kind}) after {self.attempts} "
            f"attempt(s){cause}"
        )


@dataclass
class _Pending:
    """One chunk's dispatch state across pool generations."""

    index: int
    chunk: object
    attempts: int = 0
    last: Optional[ChunkFailure] = field(default=None, repr=False)

    def bump(self, kind: str, cause: Optional[BaseException]) -> None:
        """Record one failed attempt."""
        self.attempts += 1
        self.last = ChunkFailure(kind, self.attempts, cause)


def _count(metric: str, **labels: object) -> None:
    if OBS.enabled:
        OBS.metrics.counter(metric, **labels).inc()


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if its workers are hung.

    ``shutdown`` alone would join a hung worker forever; terminating the
    processes first makes the deadline guarantee real.  ``_processes``
    is private API, so this degrades to a plain non-waiting shutdown if
    the attribute ever moves.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except (AttributeError, OSError, ValueError):  # pragma: no cover
            pass


def _run_serial(
    worker: Callable[[T], List[R]],
    chunks: Sequence[T],
    on_chunk_error,
    on_chunk_done,
) -> List[R]:
    """The in-process degenerate path (no crash isolation possible)."""
    out: List[R] = []
    for index, chunk in enumerate(chunks):
        try:
            results = worker(chunk)
        except Exception as exc:  # noqa: BLE001 - routed to the handler
            if on_chunk_error is None:
                raise
            results = on_chunk_error(
                chunk, ChunkFailure("error", 1, exc)
            )
            _count("repro_pool_quarantined_total", phase="serial")
        if on_chunk_done is not None:
            on_chunk_done(index, chunk, results)
        out.extend(results)
    return out


def _shared_generations(
    worker,
    pending: List[_Pending],
    results: List[Optional[List[R]]],
    *,
    workers: int,
    retries: int,
    deadline: Optional[float],
    on_chunk_done,
) -> List[_Pending]:
    """Run chunks through shared pools, rebuilding on breakage.

    Each *generation* is one pool over the still-unfinished chunks.  A
    clean generation finishes everything; a broken or timed-out one is
    killed, its completed chunks harvested, and the survivors retried in
    the next generation — at most ``retries + 1`` in total.  Returns the
    chunks still unfinished (they go to the solo phase: attribution in a
    shared pool is imprecise, every in-flight chunk of a broken
    generation looks guilty, so nothing is quarantined from here).
    """
    for generation in range(retries + 1):
        if not pending:
            break
        if generation:
            _count("repro_pool_retries_total", phase="shared")
        pool = ProcessPoolExecutor(max_workers=min(workers, len(pending)))
        broke = False
        try:
            remaining = {}
            for pend in pending:
                try:
                    remaining[pool.submit(worker, pend.chunk)] = pend
                except BrokenProcessPool:
                    # A worker died while chunks were still being handed
                    # out: the generation is broken, and the chunks never
                    # submitted wait for the next one, uncharged.
                    broke = True
                    break
            while remaining:
                done, _ = wait(remaining, timeout=deadline,
                               return_when=FIRST_COMPLETED)
                if not done:
                    # A full deadline window with zero completions: at
                    # least one worker is hung and the rest (if any)
                    # are starved behind it.  Kill the generation.
                    _count("repro_pool_deadline_total", phase="shared")
                    broke = True
                    cause = FutureTimeoutError(
                        f"no chunk completed within {deadline}s"
                    )
                    for pend in remaining.values():
                        pend.bump("timeout", cause)
                    break
                for fut in done:
                    pend = remaining.pop(fut)
                    exc = fut.exception()
                    if exc is None:
                        results[pend.index] = fut.result()
                        if on_chunk_done is not None:
                            on_chunk_done(pend.index, pend.chunk,
                                          results[pend.index])
                    elif isinstance(exc, BrokenProcessPool):
                        broke = True
                        pend.bump("crash", exc)
                    else:
                        pend.bump("error", exc)
                if broke:
                    # The pool is dead; every unfinished future would
                    # raise BrokenProcessPool anyway.  Fail them as
                    # crash victims and rebuild.
                    _count("repro_pool_broken_total")
                    cause = BrokenProcessPool("pool broke mid-generation")
                    for pend in remaining.values():
                        pend.bump("crash", cause)
                    break
        finally:
            if broke:
                _kill_pool(pool)
            else:
                pool.shutdown(wait=True)
        # Submission order is preserved: `pending` was ordered, and we
        # filter rather than re-sort.
        pending = [p for p in pending if results[p.index] is None]
    return pending


def _solo_attempts(
    worker, chunk, *, retries: int, deadline: Optional[float]
) -> object:
    """Run one chunk alone in fresh single-worker pools.

    Returns the chunk's result list on success, or the final
    :class:`ChunkFailure` after ``retries + 1`` isolated attempts.
    """
    failure: Optional[ChunkFailure] = None
    for attempt in range(retries + 1):
        if attempt:
            _count("repro_pool_retries_total", phase="solo")
        pool = ProcessPoolExecutor(max_workers=1)
        try:
            fut = pool.submit(worker, chunk)
            try:
                result = fut.result(timeout=deadline)
            except FutureTimeoutError as exc:
                _count("repro_pool_deadline_total", phase="solo")
                failure = ChunkFailure("timeout", attempt + 1, exc)
                _kill_pool(pool)
                continue
            except BrokenProcessPool as exc:
                failure = ChunkFailure("crash", attempt + 1, exc)
                _kill_pool(pool)
                continue
            except Exception as exc:  # noqa: BLE001 - worker raised
                failure = ChunkFailure("error", attempt + 1, exc)
                _kill_pool(pool)
                continue
            return result
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    assert failure is not None
    return failure


def _solo_phase(
    worker,
    pending: List[_Pending],
    results: List[Optional[List[R]]],
    *,
    retries: int,
    deadline: Optional[float],
    split,
    on_chunk_error,
    on_chunk_done,
) -> None:
    """Isolate, split, and quarantine the chunks the shared phase lost."""
    for pend in pending:
        outcome = _solo_attempts(worker, pend.chunk, retries=retries,
                                 deadline=deadline)
        if not isinstance(outcome, ChunkFailure):
            chunk_results = outcome
        else:
            subchunks = list(split(pend.chunk)) if split is not None else []
            if len(subchunks) > 1:
                # Corner the poison item: each sub-chunk gets its own
                # isolated attempts, so siblings of a poison point
                # complete and only the true culprit is quarantined.
                chunk_results = []
                for sub in subchunks:
                    sub_out = _solo_attempts(worker, sub, retries=retries,
                                             deadline=deadline)
                    if not isinstance(sub_out, ChunkFailure):
                        chunk_results.extend(sub_out)
                        continue
                    if on_chunk_error is None:
                        raise sub_out
                    _count("repro_pool_quarantined_total", phase="solo")
                    chunk_results.extend(on_chunk_error(sub, sub_out))
            else:
                if on_chunk_error is None:
                    raise outcome
                _count("repro_pool_quarantined_total", phase="solo")
                chunk_results = on_chunk_error(pend.chunk, outcome)
        results[pend.index] = chunk_results
        if on_chunk_done is not None:
            on_chunk_done(pend.index, pend.chunk, chunk_results)


def run_chunks(
    worker: Callable[[T], List[R]],
    chunks: Sequence[T],
    *,
    jobs: int = 0,
    retries: int = 2,
    deadline: Optional[float] = None,
    on_chunk_error: Optional[
        Callable[[T, ChunkFailure], List[R]]
    ] = None,
    split: Optional[Callable[[T], Sequence[T]]] = None,
    on_chunk_done: Optional[Callable[[int, T, List[R]], None]] = None,
    isolate: bool = False,
) -> List[R]:
    """Run ``worker`` over every chunk, flattening results in chunk order.

    ``worker`` must be a module-level (picklable) callable returning a
    list per chunk.  With ``jobs >= 2`` chunks are dispatched to a
    :class:`~concurrent.futures.ProcessPoolExecutor`; the flattened
    output is position-for-position identical to the serial path no
    matter which workers finish (or die) first.

    Hardening knobs (all optional; the defaults preserve the historical
    fail-fast behavior for callers that pass none of them):

    ``retries``
        Shared-pool generations and per-chunk solo attempts allowed
        beyond the first (a poison chunk costs ``retries + 1`` shared
        generations plus its isolated attempts before quarantine).
    ``deadline``
        Seconds of *stall* tolerated — a generation with no completions
        for this long, or a solo chunk exceeding it, is killed and
        retried.  ``None`` waits forever (the historical behavior).
    ``on_chunk_error``
        Called with ``(chunk, ChunkFailure)`` when a chunk exhausts the
        ladder; its return value substitutes for the chunk's results
        (structured error records, in the sweeps).  Without it the
        failure is raised — but only after the retry ladder, so
        transient worker deaths are still healed.
    ``split``
        Called with a failing chunk; returning more than one sub-chunk
        re-runs them individually to corner a poison item.  Sub-chunk
        results are concatenated in split order, preserving the
        chunk-order determinism contract.
    ``on_chunk_done``
        Progress hook ``(chunk_index, chunk, results)`` invoked as each
        chunk completes (completion order, not submission order) — the
        journaling hook that makes sweeps resumable.
    ``isolate``
        Use worker processes whenever ``jobs >= 2`` was *requested*,
        even on hosts with fewer cores (where :func:`resolve_jobs`
        would clamp to serial).  Crash isolation needs a process
        boundary regardless of core count.
    """
    chunks = list(chunks)
    if isolate and (jobs >= 2 or jobs < 0):
        workers = jobs if jobs >= 2 else (len(chunks) or 1)
        workers = min(workers, len(chunks) or 1, 16)
        # Isolation must hold even for a single chunk (a pool of one):
        # the serial path would run crash-prone work in the parent,
        # and an os._exit there takes down the whole run.
        serial = not chunks
    else:
        workers = resolve_jobs(jobs)
        serial = workers <= 1 or len(chunks) <= 1
    if serial:
        return _run_serial(worker, chunks, on_chunk_error, on_chunk_done)

    results: List[Optional[List[R]]] = [None] * len(chunks)
    pending = [_Pending(i, chunk) for i, chunk in enumerate(chunks)]
    pending = _shared_generations(
        worker, pending, results,
        workers=workers, retries=retries, deadline=deadline,
        on_chunk_done=on_chunk_done,
    )
    if pending:
        _solo_phase(
            worker, pending, results,
            retries=retries, deadline=deadline, split=split,
            on_chunk_error=on_chunk_error, on_chunk_done=on_chunk_done,
        )
    out: List[R] = []
    for chunk_results in results:
        assert chunk_results is not None
        out.extend(chunk_results)
    return out
