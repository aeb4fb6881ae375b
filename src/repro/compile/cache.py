"""Content-addressed caching of compiled programs and class partitions.

Both are instances of the one cache shape
(:class:`~repro.core.cache.ContentCache`, DESIGN.md §9):

* :class:`CompiledCache` — keyed by the **source schedule's
  fingerprint** (two IR-identical schedules share one artifact, whatever
  parameters built them).  With a ``store`` it files ``compiled/…``
  entries next to their ``schedule/…`` siblings, and every artifact
  loaded from disk is verified column by column against the schedule
  it is fetched for: what fails is quarantined and recompiled, never
  executed.  The tuning service fills one for its wire payload and
  store tier; no executor and no simulator looks an artifact up (they
  bind or plan the schedule they hold).  The process-global instance
  is a shim for the frozen benchmark.
* the class-partition cache, in process only.  It lives with the
  partition lookup (:func:`repro.compile.classes.rank_classes`, keyed
  by :func:`~repro.compile.classes.partition_key`) and is re-exported
  here, with :func:`get_or_classify` and :func:`clear_class_cache`,
  for callers that predate that lookup.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple, Union

from ..core.cache import ContentCache, StoreTier
from ..core.schedule import Schedule
from .classes import _class_entries, rank_classes
from .lower import compile_schedule
from .program import CompiledSchedule

__all__ = [
    "CompiledCache",
    "global_compiled_cache",
    "get_or_compile",
    "compiled_store_key",
    "open_compiled_store",
    "get_or_classify",
    "clear_class_cache",
]


def compiled_store_key(schedule: Schedule) -> str:
    """The disk-store key for one schedule's compiled artifact.

    Parameter segments keep the store browsable next to its
    ``schedule/…`` siblings; the trailing fingerprint prefix makes the
    key content-addressed (an edited builder files its new lowering
    under a new key instead of colliding with the stale one).
    """
    fp = schedule.fingerprint()
    return (
        f"compiled/{schedule.collective}/{schedule.algorithm}/"
        f"p={schedule.nranks}/k={schedule.k}/root={schedule.root}/"
        f"{fp[:16]}"
    )


class CompiledCache(ContentCache):
    """The cache of compiled programs, keyed by source fingerprint.

    Content addressed end to end: equal IR → one artifact, and a drifted
    builder can never serve a stale lowering.  ``store`` adds the disk
    tier (:func:`open_compiled_store`).
    """

    tier = StoreTier(
        kind=CompiledSchedule,
        field="compiled_pickle",
        store_key=compiled_store_key,
        # Identity plus column equality, against the schedule the
        # artifact is being fetched for.
        check=lambda compiled, schedule: compiled.verify(schedule),
        audit=lambda compiled, key: {"source_fingerprint": key},
    )

    def __init__(self, maxsize: int = 256, *, store=None) -> None:
        super().__init__("compiled", maxsize, store=store)

    def get_or_compile(
        self, schedule: Schedule
    ) -> Tuple[CompiledSchedule, bool]:
        """Return ``(compiled, hit)`` — lowering and inserting on a miss."""
        return self.get_or_make(
            schedule.fingerprint(),
            lambda: compile_schedule(schedule),
            schedule,
        )


_GLOBAL = CompiledCache()


def global_compiled_cache() -> CompiledCache:
    """The process-global compiled-program cache.

    A shim: executors bind the schedule and the simulator plans it;
    only the frozen benchmark's staged traces look it up (ROADMAP item
    15(b) retires it).
    """
    return _GLOBAL


def get_or_compile(schedule: Schedule) -> CompiledSchedule:
    """The compiled artifact for ``schedule``, via the global cache (a
    shim for the frozen benchmark, like :func:`global_compiled_cache`)."""
    return _GLOBAL.get_or_compile(schedule)[0]


def get_or_classify(schedule: Schedule, machine, nbytes: int):
    """Warm the compiled cache for ``schedule``, then return the
    partition :func:`~repro.compile.classes.rank_classes` serves —
    the very object a later collapsed ``simulate`` finds cached.

    A shim: classification reads the schedule, not its compiled
    artifact, so nothing in ``src/`` calls this.  It stays for the
    frozen benchmark, whose staged ``scale_sim`` times compile and
    classify apart and whose cache test expects a warm compiled cache
    (ROADMAP item 15(b) retires it).
    """
    _GLOBAL.get_or_compile(schedule)
    return rank_classes(schedule, machine, nbytes)


def clear_class_cache() -> None:
    """Drop every in-process class partition (tests, cold benchmarks)."""
    _class_entries.clear()


def open_compiled_store(
    root: Union[str, Path], *, fsync: bool = False
) -> CompiledCache:
    """Open (creating if needed) a disk-backed compiled cache at ``root``.

    The same store root can hold schedule and compiled entries side by
    side (distinct ``schedule/…`` vs ``compiled/…`` key prefixes).
    """
    from ..store.disk import DiskStore

    return CompiledCache(store=DiskStore(root, fsync=fsync, name="compiled"))
