"""repro.store — the crash-safe durability layer (DESIGN.md §13).

The tuning pipeline's results used to live and die with the process:
:class:`~repro.core.cache.ScheduleCache` was in-process LRU only, and an
interrupted sweep lost every completed point.  This package is the
persistence backbone the selection-configuration story assumes — the
offline tuning database the survey literature treats as table stakes
for production selection systems — built with the same fail-safe
discipline :mod:`repro.faults` and :mod:`repro.recovery` apply to the
simulated fabric:

* :class:`DiskStore` (:mod:`repro.store.disk`) — a content-addressed
  directory of checksummed JSON entries with atomic temp-file+rename
  writes, a versioned format, and quarantine-instead-of-crash handling
  of every kind of damage;
* :func:`open_schedule_store` (:mod:`repro.store.schedules`) — the
  schedule cache with a disk tier attached (the generic ladder of
  :class:`~repro.core.cache.ContentCache`), semantically verified on
  read, sharable across processes via advisory locking;
* :class:`JournalWriter` / :func:`read_journal`
  (:mod:`repro.store.journal`) — the crash-safe JSONL journal behind
  resumable sweeps (``repro-sweep --resume``);
* :class:`FileLock` (:mod:`repro.store.locking`) — advisory flock so
  concurrent ``--jobs`` workers and future server processes share one
  store directory.

The one-line rule of the whole layer: **damage is a miss, not an
error** — a corrupted entry or torn journal line costs a rebuild or a
re-run of one point, never a crashed run.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    "FORMAT_VERSION": ".disk",
    "DiskStore": ".disk",
    "StoreStats": ".disk",
    "LINE_VERSION": ".journal",
    "JournalWriter": ".journal",
    "journal_header": ".journal",
    "read_journal": ".journal",
    "FileLock": ".locking",
    "have_flock": ".locking",
    "open_schedule_store": ".schedules",
    "schedule_store_key": "..core.cache",
})

__all__ = [
    "FORMAT_VERSION",
    "LINE_VERSION",
    "DiskStore",
    "StoreStats",
    "JournalWriter",
    "read_journal",
    "journal_header",
    "FileLock",
    "have_flock",
    "open_schedule_store",
    "schedule_store_key",
]
