"""The hardened executor's retry ladder, end to end.

:func:`repro.parallel.run_chunks` promises that worker death — crash,
hang, or poison input — costs at most the poisoned work item, never the
sweep: transient crashes heal through re-dispatch, repeat offenders are
cornered by the ``split`` hook and handed to ``on_chunk_error`` as
structured records, and everything else completes in deterministic
chunk order.  Workers here are real processes (``isolate=True``) dying
real deaths (``os._exit``), because the failure being hardened against
cannot be simulated by an exception.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.parallel import ChunkFailure, resolve_jobs, run_chunks

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning"
)


# ----------------------------------------------------------------------
# Module-level workers (must be picklable for the process pool)
# ----------------------------------------------------------------------


def _square_chunk(chunk):
    return [x * x for x in chunk]


def _raise_on_13(chunk):
    if 13 in chunk:
        raise ValueError("unlucky chunk")
    return [x * x for x in chunk]


def _exit_on_13(chunk):
    if 13 in chunk:
        os._exit(139)  # a segfault stand-in: no exception, no cleanup
    return [x * x for x in chunk]


def _exit_once_marker(chunk):
    # Transient crash: dies the first time it sees the marker path
    # missing, succeeds on the re-dispatch.  The marker lives in the
    # chunk itself so the worker needs no shared state beyond the disk.
    marker, values = chunk
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("crashed once")
        os._exit(139)
    return [x * x for x in values]


def _hang_on_13(chunk):
    if 13 in chunk:
        time.sleep(600)
    return [x * x for x in chunk]


def _split_pairs(chunk):
    return [(x,) for x in chunk]


def _error_records(chunk, failure):
    assert isinstance(failure, ChunkFailure)
    return [("error", x, failure.kind) for x in chunk]


# ----------------------------------------------------------------------
# Serial path
# ----------------------------------------------------------------------


def test_serial_worker_exception_routes_to_handler():
    chunks = [(1, 2), (13,), (4,)]
    out = run_chunks(
        _raise_on_13, chunks, jobs=0, on_chunk_error=_error_records
    )
    assert out == [1, 4, ("error", 13, "error"), 16]


def test_serial_worker_exception_raises_without_handler():
    with pytest.raises(ValueError, match="unlucky"):
        run_chunks(_raise_on_13, [(13,)], jobs=0)


def test_serial_on_chunk_done_sees_completion_order():
    seen = []
    run_chunks(
        _square_chunk, [(1,), (2,), (3,)], jobs=0,
        on_chunk_done=lambda i, chunk, results: seen.append((i, results)),
    )
    assert seen == [(0, [1]), (1, [4]), (2, [9])]


# ----------------------------------------------------------------------
# Process-pool hardening (isolate=True forces real workers even on a
# single-core host — crash isolation needs a process boundary)
# ----------------------------------------------------------------------


def test_poison_chunk_is_cornered_and_siblings_survive():
    chunks = [(1, 2), (13, 3), (4, 5)]
    out = run_chunks(
        _exit_on_13, chunks, jobs=2, isolate=True, retries=1,
        deadline=30.0,
        on_chunk_error=_error_records, split=_split_pairs,
    )
    # Chunk order holds; within the poisoned chunk, the split cornered
    # the culprit and its innocent sibling still computed.  The
    # poisoned item usually records a "crash", but a worker dying while
    # holding the pool's call-queue lock starves the generation instead
    # — then the deadline path reaps it as a "timeout".  Either way the
    # sweep survives; that is the property under test (and why every
    # pool test here runs with a deadline: without one, that same race
    # would hang the *test*).
    assert out[:2] == [1, 4]
    assert out[3:] == [9, 16, 25]
    tag, item, kind = out[2]
    assert (tag, item) == ("error", 13)
    assert kind in ("crash", "timeout")


def test_transient_crash_heals_through_redispatch(tmp_path):
    marker = str(tmp_path / "crashed-once")
    out = run_chunks(
        _exit_once_marker, [(marker, (2, 3))], jobs=2, isolate=True,
        retries=2, deadline=30.0, on_chunk_error=_error_records,
    )
    assert out == [4, 9]  # healed: no error records at all


def test_poison_without_handler_raises_chunk_failure():
    with pytest.raises(ChunkFailure) as excinfo:
        run_chunks(
            _exit_on_13, [(13,)], jobs=2, isolate=True, retries=0,
            deadline=30.0,
        )
    assert excinfo.value.kind in ("crash", "timeout")
    assert excinfo.value.attempts >= 1


def _submit_breaks_on_call(monkeypatch, n):
    """Make the ``n``-th ``pool.submit`` of the run raise
    :class:`BrokenProcessPool`, as it does when a worker has died before
    the last chunk of a generation was handed out."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    import repro.parallel

    calls = []

    class BreaksOnSubmit(ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            calls.append(fn)
            if len(calls) == n:
                raise BrokenProcessPool("a worker died during submission")
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(repro.parallel, "ProcessPoolExecutor",
                        BreaksOnSubmit)


def test_pool_breaking_during_submission_heals(monkeypatch):
    from repro.parallel import _Pending, _shared_generations

    chunks = [(1, 2), (3, 4), (5, 6)]
    _submit_breaks_on_call(monkeypatch, 3)
    out = run_chunks(
        _square_chunk, chunks, jobs=2, isolate=True, retries=1,
        deadline=30.0, on_chunk_error=_error_records,
    )
    assert out == [1, 4, 9, 16, 25, 36]
    # With no generation left, the chunk never submitted goes on
    # uncharged; a submitted one is harvested if it finished first,
    # else charged as a crash victim.
    _submit_breaks_on_call(monkeypatch, 3)
    pending = [_Pending(i, chunk) for i, chunk in enumerate(chunks)]
    results = [None] * len(chunks)
    left = _shared_generations(
        _square_chunk, pending, results, workers=2, retries=0,
        deadline=30.0, on_chunk_done=None,
    )
    assert [pend.index for pend in left] == [
        i for i, r in enumerate(results) if r is None
    ]
    assert left[-1].index == 2 and left[-1].attempts == 0
    assert [pend.attempts for pend in left[:-1]] == [1] * (len(left) - 1)
    assert len(left) < len(chunks)


def test_hung_chunk_is_killed_at_the_deadline():
    t0 = time.monotonic()
    out = run_chunks(
        _hang_on_13, [(1,), (13,)], jobs=2, isolate=True,
        retries=0, deadline=1.0,
        on_chunk_error=_error_records,
    )
    elapsed = time.monotonic() - t0
    assert out == [1, ("error", 13, "timeout")]
    assert elapsed < 60, "deadline must bound the stall, not join it"


def test_parallel_results_are_bit_identical_to_serial():
    chunks = [tuple(range(i, i + 3)) for i in range(0, 30, 3)]
    serial = run_chunks(_square_chunk, chunks, jobs=0)
    pooled = run_chunks(
        _square_chunk, chunks, jobs=4, isolate=True, deadline=60.0
    )
    assert pooled == serial


def test_resolve_jobs_clamps_to_available_cores(monkeypatch):
    import repro.parallel

    monkeypatch.setattr(repro.parallel, "_available_cpus", lambda: 4)
    assert resolve_jobs(0) == 0
    assert resolve_jobs(1) == 1
    assert resolve_jobs(8) == 4
    assert resolve_jobs(-1) == 4
