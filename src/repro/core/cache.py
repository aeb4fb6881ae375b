"""The one cache shape: a content-addressed LRU with an optional store tier.

Sweeps (Figs. 8–11), the tuner, and the data executors ask for the same
derived artifacts over and over: one (collective, algorithm, p, k, root)
point is simulated at every message size on the grid, and the tuner
revisits the identical point for several collectives' baselines.  Every
producer in the pipeline — build, compile, classify, check, simulate —
is a pure function of its key, so its result can be reused verbatim.

* :class:`ContentCache` — the cache every layer instantiates (DESIGN.md
  §9 tabulates all five), with :class:`StoreTier` describing how one
  kind of value rides a disk store.
* :func:`schedule_key` — the canonical schedule cache key.  Defaults are
  normalized through the registry (``k=None`` on a generalized algorithm
  resolves to its ``default_k``; a ``root`` other than 0 on an unrooted
  algorithm is refused, as the builder refuses it), so every parameter
  spelling of the same content maps to one key.  The key *is* the
  content address: two equal keys always name step-for-step identical
  schedules, which
  ``tests/properties/test_schedule_cache.py`` pins down via
  :meth:`~repro.core.schedule.Schedule.fingerprint`.
* :class:`ScheduleCache` / :func:`cached_build_schedule` — built
  schedules, and the drop-in for
  :func:`repro.core.registry.build_schedule` backed by a process-global
  instance (each parallel-sweep worker process grows its own).

Cached values are shared objects: a :class:`Schedule` is immutable once
constructed (:mod:`repro.core.schedule`).  Only ``meta`` is a plain
dict; callers that want to annotate it take a
:meth:`~repro.core.schedule.Schedule.relabel` copy first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from ..errors import ReproError, ScheduleError
from ..obs import OBS
from .primitives import sharing_phases
from .registry import info
from .schedule import Schedule
from .serialize import dumps_blob, loads_blob

__all__ = [
    "ScheduleKey",
    "schedule_key",
    "schedule_store_key",
    "CacheStats",
    "StoreTier",
    "ContentCache",
    "ScheduleCache",
    "global_schedule_cache",
    "set_global_schedule_cache",
    "cached_build_schedule",
]

#: (collective, algorithm, p, k, root) with defaults resolved.
ScheduleKey = Tuple[str, str, int, Optional[int], int]


def schedule_key(
    collective: str,
    algorithm: str,
    p: int,
    *,
    k: Optional[int] = None,
    root: int = 0,
) -> ScheduleKey:
    """Canonical cache key for a schedule build request.

    Mirrors :meth:`AlgorithmInfo.build`'s parameter handling exactly —
    its defaults and its refusals, with the same texts — so a key never
    aliases two different schedules, never splits one schedule across
    two keys, and a warm cache refuses what a cold one refuses:

    >>> schedule_key("allreduce", "knomial", 8) == \\
    ...     schedule_key("allreduce", "knomial", 8, k=2)
    True
    >>> schedule_key("allreduce", "ring", 8, root=5)
    Traceback (most recent call last):
    ...
    repro.errors.ScheduleError: allreduce/ring does not take a root (got root=5)
    """
    entry = info(collective, algorithm)
    if p < 1:
        raise ScheduleError(f"p must be >= 1, got {p}")
    if entry.takes_k:
        if k is None:
            k = entry.default_k
        if k is None:
            raise ScheduleError(
                f"{collective}/{algorithm} requires a radix k"
            )
        k = int(k)
    elif k is not None:
        raise ScheduleError(
            f"{collective}/{algorithm} does not take a radix (got k={k})"
        )
    if not entry.takes_root and root != 0:
        raise ScheduleError(
            f"{collective}/{algorithm} does not take a root (got root={root})"
        )
    return (collective, algorithm, int(p), k, int(root))


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of one :class:`ContentCache`'s counters.

    Returned by :meth:`ContentCache.stats`; shares the ``to_dict()``
    stats protocol with :class:`~repro.bench.sweep.SweepStats` and
    :class:`~repro.simnet.trace.TimelineStats`, so :mod:`repro.obs`
    snapshots and JSON exports are uniform across subsystems.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        n = self.lookups
        return self.hits / n if n else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class StoreTier:
    """How one kind of cached value rides a :class:`~repro.store.disk.DiskStore`.

    ``source`` is what an entry is filed for: the :data:`ScheduleKey`
    for schedules, the source :class:`Schedule` for compiled programs.
    """

    kind: type  #: what a stored blob must decode to
    field: str  #: the payload field that holds the blob
    store_key: Callable[[Any], str]  #: ``source → store key string``
    #: ``(value, source)``, the semantic rung: raise when the decoded
    #: value is not the one ``source`` asks for.
    check: Callable[[Any, Any], None]
    #: ``(value, key) → fingerprints`` filed beside the blob (audit).
    audit: Callable[[Any, Any], Dict[str, str]]


class ContentCache:
    """Bounded, thread-safe LRU from content-address keys to pure results.

    One lock guards the entries and every counter, and the
    ``repro_cache_lookups_total`` / ``repro_cache_evictions_total``
    series (``cache=name``) are bumped under it with ``stats()``, so the
    two always agree.  Producers and disk reads run outside the lock:
    they are pure, so a racing duplicate wastes a little work but stays
    correct (last insert wins, both values are identical).  Values must
    not be ``None``.

    With a ``store`` (a :class:`~repro.store.disk.DiskStore`; the class
    must define :attr:`tier`) a lookup goes memory → disk → producer,
    and a hit is any lookup that avoided the producer (:meth:`disk_stats`
    tells the tiers apart).  Integrity is a ladder: the store's byte
    checksum catches on-disk damage before the blob is touched; what
    decodes must then be the tier's ``kind`` and pass its semantic
    ``check``.  Anything that fails is quarantined and remade — damage
    is a miss, never an error — and every made value is written through,
    so the store heals and the *next* process starts warm.  Changed
    builder *semantics* are handled by protocol, not per-read hashing:
    bump :data:`repro.store.disk.FORMAT_VERSION` (CONTRIBUTING.md) and
    every stale entry reads as a miss.
    """

    #: Set by the kinds that can persist (schedule, compiled).
    tier: Optional[StoreTier] = None

    def __init__(self, name: str, maxsize: int, *, store=None) -> None:
        if maxsize < 1:
            raise ScheduleError(f"cache maxsize must be >= 1, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self.store = store
        self._hits = self._misses = self._evictions = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> CacheStats:
        """Frozen snapshot of the hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(self._hits, self._misses, self._evictions)

    def disk_stats(self):
        """The disk tier's :class:`~repro.store.disk.StoreStats`."""
        return self.store.stats()

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0

    def _count(self, hit: bool) -> None:
        """Record one lookup outcome (caller holds the lock)."""
        if hit:
            self._hits += 1
        else:
            self._misses += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_cache_lookups_total",
                cache=self.name,
                outcome="hit" if hit else "miss",
            ).inc()

    def get(self, key: Hashable, source: Any = None) -> Optional[Any]:
        """The value cached under ``key`` (memory, then disk), or ``None``.

        ``source`` is what the tier's ``store_key`` and ``check`` see
        (default: the key itself).  Counts exactly one hit or one miss.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            if value is not None or self.store is None:
                self._count(value is not None)
                return value
        value = self._load(key if source is None else source)
        with self._lock:
            self._count(value is not None)
            if value is not None:
                self._insert(key, value)
        return value

    def put(self, key: Hashable, value: Any, source: Any = None) -> None:
        """Insert ``value`` (written through to the store, if any)."""
        if self.store is not None:
            self.store.put(
                self.tier.store_key(key if source is None else source),
                {
                    **self.tier.audit(value, key),
                    self.tier.field: dumps_blob(value),
                },
            )
        with self._lock:
            self._insert(key, value)

    def get_or_make(
        self,
        key: Hashable,
        make: Callable[[], Any],
        source: Any = None,
    ) -> Tuple[Any, bool]:
        """``(value, hit)`` — ``make`` runs once on a miss, and every hit
        returns that same object."""
        value = self.get(key, source)
        if value is not None:
            return value, True
        value = make()
        self.put(key, value, source)
        return value, False

    def _insert(self, key: Hashable, value: Any) -> None:
        """LRU-insert, evicting down to ``maxsize`` (caller holds the lock)."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            evicted += 1
        self._evictions += evicted
        if evicted and OBS.enabled:
            OBS.metrics.counter(
                "repro_cache_evictions_total", cache=self.name
            ).inc(evicted)

    def _load(self, source: Any) -> Optional[Any]:
        """Decode + verify one disk entry, or ``None``.

        The byte checksum already passed inside ``store.get``.  Intact
        bytes that are still not the value they claim to be (codec
        drift, a stale or mis-filed artifact) get the same treatment as
        byte damage: quarantine, count, remake.
        """
        tier, store = self.tier, self.store
        store_key = tier.store_key(source)
        payload = store.get(store_key)
        if payload is None:
            return None
        try:
            value = loads_blob(payload[tier.field], tier.kind)
            tier.check(value, source)
        except Exception as exc:  # noqa: BLE001 — quarantine, never crash
            store.reject(store_key, "semantic")
            if OBS.enabled:
                OBS.metrics.counter(
                    "repro_store_semantic_rejects_total",
                    store=store.name,
                    error=type(exc).__name__,
                ).inc()
            return None
        return value


def schedule_store_key(key: ScheduleKey) -> str:
    """The store key string for a normalized schedule cache key.

    >>> schedule_store_key(schedule_key("allreduce", "knomial", 8))
    'schedule/allreduce/knomial/p=8/k=2/root=0'
    """
    collective, algorithm, p, k, root = key
    return f"schedule/{collective}/{algorithm}/p={p}/k={k}/root={root}"


def _check_schedule(sched: Schedule, key: ScheduleKey) -> None:
    # Builders alias at degenerate radices (knomial k=2 returns a
    # schedule labeled binomial, kring k=1 a ring), so algorithm and k
    # are not invariants of the entry — but the collective, rank count,
    # and root must match the key the entry is filed under.
    collective, _algorithm, p, _k, root = key
    if (
        sched.collective != collective
        or sched.nranks != p
        or (sched.root or 0) != root
    ):
        raise ReproError("entry parameters do not match its key")


class ScheduleCache(ContentCache):
    """The cache of built schedules, keyed by :func:`schedule_key`.

    Thread-safe: the threaded runtime's per-rank workers may build
    schedules concurrently.  ``maxsize`` bounds memory — a 1024-rank
    k-nomial schedule is a few MB of IR, and sweeps revisit far fewer
    than the default 512 distinct points.  ``store`` adds the disk tier
    under ``schedule/…`` keys: loading a stored schedule is meaningfully
    faster than re-running its builder, which is the whole point of a
    warm start (:func:`repro.store.open_schedule_store`).

    ``phases`` is the instance's cache of sub-schedules, keyed by
    builder name and arguments: composite builders running under
    :meth:`get_or_build` take each distinct phase from it
    (:func:`~repro.core.primitives.shared_phase`) — one k-ring allgather
    serves ``allgather/kring``, ``bcast/kring`` and both halves of
    ``allreduce/kring`` at that ``(p, k)``.  Memory only, dropped by
    :meth:`clear`.
    """

    tier = StoreTier(
        kind=Schedule,
        field="schedule_pickle",
        store_key=schedule_store_key,
        check=_check_schedule,
        audit=lambda sched, key: {"fingerprint": sched.fingerprint()},
    )

    def __init__(self, maxsize: int = 512, *, store=None) -> None:
        super().__init__("schedule", maxsize, store=store)
        self.phases = ContentCache("phase", 128)

    def clear(self) -> None:
        """Drop every in-memory entry, phases included; reset counters."""
        super().clear()
        self.phases.clear()

    def get_or_build(
        self,
        collective: str,
        algorithm: str,
        p: int,
        *,
        k: Optional[int] = None,
        root: int = 0,
    ) -> Tuple[Schedule, bool]:
        """Return ``(schedule, hit)`` — building and inserting on a miss."""
        def build() -> Schedule:
            with sharing_phases(self.phases):
                return info(collective, algorithm).build(p, k=k, root=root)

        return self.get_or_make(
            schedule_key(collective, algorithm, p, k=k, root=root), build
        )


_GLOBAL = ScheduleCache()


def global_schedule_cache() -> ScheduleCache:
    """The process-global cache behind :func:`cached_build_schedule`.

    Each parallel-sweep worker process has its own instance; hit-rate
    accounting across workers therefore travels with per-point results
    (see :mod:`repro.bench.sweep`), not through this object.
    """
    return _GLOBAL


def set_global_schedule_cache(cache: ScheduleCache) -> ScheduleCache:
    """Swap the process-global cache; returns the previous instance.

    The sanctioned hook for backing the global cache with a disk store
    (``run_sweep(store=...)``).  Every existing call site keeps working
    because both :func:`global_schedule_cache` and
    :func:`cached_build_schedule` read the module global at call time.
    Callers should restore the previous instance when done (sweeps do
    this in a ``finally``), so attachment never leaks across runs.
    """
    global _GLOBAL
    if not isinstance(cache, ScheduleCache):
        raise ScheduleError(
            f"global schedule cache must be a ScheduleCache, "
            f"got {type(cache).__name__}"
        )
    previous = _GLOBAL
    _GLOBAL = cache
    return previous


def cached_build_schedule(
    collective: str,
    algorithm: str,
    p: int,
    *,
    k: Optional[int] = None,
    root: int = 0,
) -> Schedule:
    """Cached drop-in for :func:`repro.core.registry.build_schedule`."""
    return _GLOBAL.get_or_build(collective, algorithm, p, k=k, root=root)[0]
