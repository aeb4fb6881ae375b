"""Disk-backed schedule cache: the tuning pipeline's warm start.

:func:`open_schedule_store` is a :class:`~repro.core.cache.ScheduleCache`
with a :class:`~repro.store.disk.DiskStore` attached: memory LRU first,
then disk, then the registry builder — with every build written through,
so a populated store survives the process and warm-starts the next
sweep, ``repro-tune`` run, or tuning-service worker.  The integrity
ladder is the generic one in :class:`~repro.core.cache.ContentCache`;
the portable JSON form of a schedule is still ``repro-validate --dump``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..core.cache import ScheduleCache, schedule_store_key
from .disk import DiskStore

__all__ = ["schedule_store_key", "open_schedule_store"]


def open_schedule_store(
    root: Union[str, Path], *, fsync: bool = False
) -> ScheduleCache:
    """Open (creating if needed) a disk-backed schedule cache at ``root``."""
    return ScheduleCache(store=DiskStore(root, fsync=fsync, name="schedule"))
