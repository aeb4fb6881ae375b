"""``build_config`` and ``config_from_sweeps`` under their old module path.

The selection-config document and its one codec live in
:mod:`repro.selection.table` (:class:`~repro.selection.table
.SelectionConfig`), and the tuning entry that produces it is
:func:`repro.selection.tuner.tune`.  This module keeps only the two
names the frozen benchmark workloads (``perfbench/workloads/
tune_cold.py`` and ``serve_durable.py``) import from here:
``build_config`` is :func:`~repro.selection.tuner.tune` itself.
"""

from __future__ import annotations

from ..selection.tuner import config_from_sweeps, tune as build_config

__all__ = ["build_config", "config_from_sweeps"]
