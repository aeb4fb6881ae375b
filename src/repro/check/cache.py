"""Fingerprint-keyed memoization of check reports.

Sweeps re-analyze the same schedules constantly (the CI gate alone
visits every registry pair over a (p, k) grid, and the tuner rebuilds
identical points per collective), while the analysis passes are pure
functions of the schedule content plus ``(nbytes, eager_threshold)``.
So reports are cached under
``(Schedule.fingerprint(), nbytes, eager_threshold)`` in a plain
:class:`~repro.core.cache.ContentCache` — the same content-address
contract, stats object and ``repro_cache_lookups_total{cache="check"}``
counters as every other cache — and only never-before-seen schedules
pay for analysis.  Reports are immutable (frozen dataclasses over
tuples), so the cached object is shared between callers.
"""

from __future__ import annotations

from ..core.cache import ContentCache

__all__ = ["global_check_cache"]

_GLOBAL = ContentCache("check", 1024)


def global_check_cache() -> ContentCache:
    """The process-global report cache behind ``repro.check.run_checks``.

    Parallel sweep workers each grow their own instance, exactly like
    :func:`repro.core.cache.global_schedule_cache`.
    """
    return _GLOBAL
