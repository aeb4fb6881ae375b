"""repro.server — schedule tuning as a service (DESIGN.md §17).

The ROADMAP's "schedule-tuning-as-a-service" layer: a stdlib asyncio
HTTP daemon (:class:`TuningService`, booted by ``repro-serve`` or
in-process via :func:`serve_background`) that answers tuned-selection
queries, serves content-addressed compiled schedules from the PR 6 disk
store, coalesces concurrent identical ``/tune`` sweeps into single
flights, exposes :mod:`repro.obs` Prometheus metrics, and exports the
paper's end deliverable — the MPICH-style selection-config document
(:class:`repro.selection.SelectionConfig`), which round-trips back into
the tuner as priors and into :class:`repro.adapt.OnlineSelector` warm
starts.

Two modules:

* :mod:`repro.server.app` — the service itself (:class:`TuningService`,
  :class:`ServerHandle`, :func:`serve_background`);
* :mod:`repro.server.client` — the blocking stdlib client
  (:class:`TuningClient`) that tests, docs, and
  ``execute(..., select="http://...")`` speak through.
"""

from __future__ import annotations

from .app import ServerHandle, TuningService, serve_background
from .client import TuningClient

__all__ = [
    "TuningService",
    "ServerHandle",
    "serve_background",
    "TuningClient",
]
