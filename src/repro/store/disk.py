"""Content-addressed durable store: atomic, checksummed, self-healing.

One :class:`DiskStore` is a directory of JSON entries addressed by a
caller-chosen key string (the store hashes it to a filename, so keys may
contain any characters).  The design rules, in failure-first order:

* **Atomic writes.**  Every entry is written to a ``*.tmp`` file in the
  same directory and published with ``os.replace`` — a reader sees the
  old entry or the new one, never a torn hybrid, and a crash mid-write
  leaves only a temp file that the next scan sweeps into quarantine.
* **Checksummed reads.**  Each entry embeds a SHA-256 over its canonical
  payload bytes and the key it serves.  A bit-flipped, truncated, or
  mis-filed entry fails verification on read.
* **Quarantine, never crash.**  Damage is an availability event, not an
  error: a bad entry is moved to ``quarantine/`` (with the reason in its
  filename) and the lookup reports a miss, so the caller rebuilds the
  content and the store heals by write-through.  Corruption therefore
  costs one rebuild — it cannot take down a run.
* **Versioned format.**  Entries carry ``format``; an entry from an
  incompatible version quarantines like damage (old stores degrade to
  cold caches instead of crashing new code).  See CONTRIBUTING.md for
  the bump protocol.
* **Advisory locking.**  Compound operations (orphan sweeps, quarantine
  moves) hold the store's :class:`~repro.store.locking.FileLock`, so
  concurrent sweep workers and a future tuning service share one store
  directory safely.

The payloads are plain JSON dicts; :class:`repro.core.cache.ContentCache`
layers the per-kind blob encoding (and semantic re-verification) on top.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import StoreError
from ..obs import OBS
from .locking import FileLock

__all__ = ["FORMAT_VERSION", "StoreStats", "DiskStore"]

#: On-disk entry format version.  Bump on any incompatible change to the
#: entry document shape (see CONTRIBUTING.md — old entries then read as
#: quarantined misses, i.e. the store degrades to cold, never crashes).
#: v2: stores may hold ``compiled/…`` entries (pickled
#: :class:`repro.compile.CompiledSchedule` artifacts) alongside
#: ``schedule/…`` entries; v1 stores predate compiled execution, so
#: their schedules must be re-persisted to sit next to fresh artifacts.
#: v3: a pickled :class:`repro.compile.CompiledProgram` holds six
#: arrays, not seven (the schedule's own step boundaries are the only
#: ones).
#: v4: a pickled :class:`repro.compile.CompiledSchedule` is its labels
#: plus one flat :class:`repro.core.schedule.Columns`; per-rank programs,
#: FIFO tags, the staging plan and the FIFO mismatches are no longer
#: stored.  Schedule pickles are unchanged.
#: v5: a pickled :class:`repro.core.schedule.Schedule` is its labels,
#: ``meta`` and the seven arrays of its columns, checked on load; the
#: op objects (``RankProgram`` / ``Step`` / ``SendOp`` …) are no longer
#: stored.  Compiled pickles are unchanged.
FORMAT_VERSION = 5

_ENTRY_SUFFIX = ".json"
_TMP_MARKER = ".tmp"


def _canonical(payload: Dict) -> str:
    """The canonical JSON bytes the checksum covers."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(key: str, payload_canonical: str) -> str:
    h = hashlib.sha256()
    h.update(key.encode())
    h.update(b"\x00")
    h.update(payload_canonical.encode())
    return h.hexdigest()


@dataclass(frozen=True)
class StoreStats:
    """Immutable snapshot of one :class:`DiskStore`'s counters.

    Same ``to_dict()`` stats protocol as
    :class:`~repro.core.cache.CacheStats` and
    :class:`~repro.bench.sweep.SweepStats`, so store accounting drops
    uniformly into :mod:`repro.obs` snapshots and JSON reports.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corruptions: int = 0

    @property
    def lookups(self) -> int:
        """Total reads attempted (hits + misses; quarantines are misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when never used)."""
        n = self.lookups
        return self.hits / n if n else 0.0

    def to_dict(self) -> Dict[str, float]:
        """Counters as a plain dict, for metrics snapshots and reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corruptions": self.corruptions,
            "hit_rate": self.hit_rate,
        }


class DiskStore:
    """A directory of checksummed JSON entries addressed by key string.

    ``fsync=False`` (the default) makes writes atomic against *process*
    death — the publish is an ``os.replace`` of fully written bytes, and
    the OS page cache carries them to disk.  ``fsync=True`` additionally
    survives machine/kernel crashes at a significant per-write cost;
    sweeps and benchmarks use the default, a long-lived tuning service
    should opt in.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        fsync: bool = False,
        name: str = "store",
    ) -> None:
        self.root = Path(root)
        self.fsync = fsync
        self.name = name
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corruptions = 0
        self.entries_dir = self.root / "entries"
        self.quarantine_dir = self.root / "quarantine"
        try:
            self.entries_dir.mkdir(parents=True, exist_ok=True)
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create store at {self.root}: {exc}")
        self.lock = FileLock(self.root / ".lock")
        self.sweep_orphans()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """The entry file a key maps to (exists only after a put)."""
        digest = hashlib.sha256(key.encode()).hexdigest()
        return self.entries_dir / f"{digest}{_ENTRY_SUFFIX}"

    def __len__(self) -> int:
        return sum(1 for _ in self.entries_dir.glob(f"*{_ENTRY_SUFFIX}"))

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    # ------------------------------------------------------------------
    # Read path: verify or quarantine
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict]:
        """The payload stored under ``key``, or ``None`` on miss.

        Damage of any kind — unreadable file, malformed JSON, wrong
        format version, key mismatch, checksum failure — quarantines the
        entry and reports a miss; it never raises.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self._record_lookup(hit=False)
            return None
        except (OSError, UnicodeDecodeError):
            # UnicodeDecodeError is bit-flip damage in the middle of a
            # UTF-8 sequence — found by the crash-storm soak; it must be
            # a quarantined miss like every other kind of corruption.
            self._quarantine(path, "unreadable")
            self._record_lookup(hit=False)
            return None
        payload = self._verify(path, key, text)
        self._record_lookup(hit=payload is not None)
        return payload

    def _verify(self, path: Path, key: str, text: str) -> Optional[Dict]:
        """Parse + verify one entry document; quarantine on any damage."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            self._quarantine(path, "malformed")
            return None
        if not isinstance(doc, dict):
            self._quarantine(path, "malformed")
            return None
        if doc.get("format") != FORMAT_VERSION:
            self._quarantine(path, f"format-{doc.get('format')!r}")
            return None
        payload = doc.get("payload")
        if doc.get("key") != key or not isinstance(payload, dict):
            self._quarantine(path, "key-mismatch")
            return None
        if _checksum(key, _canonical(payload)) != doc.get("sha256"):
            self._quarantine(path, "checksum")
            return None
        return payload

    def _record_lookup(self, *, hit: bool) -> None:
        if hit:
            self._hits += 1
        else:
            self._misses += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_store_lookups_total",
                store=self.name,
                outcome="hit" if hit else "miss",
            ).inc()

    # ------------------------------------------------------------------
    # Write path: temp file + rename
    # ------------------------------------------------------------------

    def put(self, key: str, payload: Dict) -> Path:
        """Atomically write ``payload`` under ``key``; returns the path.

        The payload must be JSON-serializable.  Concurrent writers of the
        same key are safe without the lock: both write complete
        documents and ``os.replace`` publishes whichever lands last.
        """
        canonical = _canonical(payload)
        doc = _canonical(
            {
                "format": FORMAT_VERSION,
                "key": key,
                "payload": json.loads(canonical),
                "sha256": _checksum(key, canonical),
            }
        )
        path = self.path_for(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}{_TMP_MARKER}")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(doc)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise StoreError(f"cannot write store entry {path}: {exc}")
        self._writes += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_store_writes_total", store=self.name
            ).inc()
        return path

    # ------------------------------------------------------------------
    # Quarantine and maintenance
    # ------------------------------------------------------------------

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a damaged file aside (never delete — it is evidence)."""
        self._corruptions += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_store_corruption_total",
                store=self.name,
                reason=reason.split("-")[0],
            ).inc()
        with self.lock:
            for attempt in range(10_000):
                dest = self.quarantine_dir / f"{path.name}.{reason}.{attempt}"
                if dest.exists():
                    continue
                try:
                    os.replace(path, dest)
                except FileNotFoundError:
                    pass  # another process quarantined it first — done
                except OSError:
                    # Quarantine must never crash a run; leave the file,
                    # the entry still reads as a miss this lookup.
                    pass
                return

    def reject(self, key: str, reason: str) -> None:
        """Quarantine an entry that passed :meth:`get`'s byte ladder but
        that its reader found wrong (the cache tier's ``"semantic"``
        rung).  Never raises, like every other quarantine."""
        self._quarantine(self.path_for(key), reason)

    def sweep_orphans(self) -> int:
        """Quarantine crash-leftover temp files; returns how many.

        A ``*.tmp`` file exists only between a writer starting and its
        ``os.replace`` — any found at open time belong to a writer that
        died mid-publish.
        """
        swept = 0
        with self.lock:
            for tmp in self.entries_dir.glob(f"*{_TMP_MARKER}"):
                self._quarantine(tmp, "orphan-tmp")
                swept += 1
        return swept

    def quarantined(self) -> List[Path]:
        """The damaged files moved aside so far (oldest first)."""
        return sorted(self.quarantine_dir.iterdir())

    def keys_on_disk(self) -> Iterator[Tuple[Path, Optional[str]]]:
        """Yield ``(entry_path, key)`` for every entry file.

        The key is read from the entry document; unreadable or
        malformed documents yield ``key=None`` (use :meth:`get` to
        quarantine them).
        """
        for path in sorted(self.entries_dir.glob(f"*{_ENTRY_SUFFIX}")):
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                key = doc.get("key") if isinstance(doc, dict) else None
            except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                key = None
            yield path, key

    def clear(self) -> None:
        """Delete every entry (quarantine is kept) and reset counters."""
        with self.lock:
            for path in self.entries_dir.glob(f"*{_ENTRY_SUFFIX}"):
                try:
                    path.unlink()
                except OSError:
                    pass
        self._hits = self._misses = self._writes = self._corruptions = 0

    def stats(self) -> StoreStats:
        """Frozen snapshot of the hit/miss/write/corruption counters."""
        return StoreStats(
            hits=self._hits,
            misses=self._misses,
            writes=self._writes,
            corruptions=self._corruptions,
        )
