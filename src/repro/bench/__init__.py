"""Benchmark harness: OSU-style measurement, radix sweeps, speedup curves,
and the per-figure experiment definitions."""

from .adapt import run_adapt_bench
from .experiments import ALL_EXPERIMENTS, ExperimentResult, run_experiment
from .osu import LatencyPoint, default_sizes, osu_latency, osu_latency_schedule
from .recovery import (
    RecoveryPoint,
    RecoveryRecord,
    recovery_curve,
    run_recovery_sweep,
    summarize_recovery,
    write_recovery_report,
)
from .report import format_size, format_table, geomean, speedup_str
from .speedup import SpeedupCurve, SpeedupPoint, policy_latency, speedup_curves
from .sweep import (
    RadixSweep,
    SweepPoint,
    SweepPointResult,
    radix_latency_sweep,
    run_sweep,
    simulate_point,
    sweep_errors,
)

__all__ = [
    "osu_latency",
    "osu_latency_schedule",
    "LatencyPoint",
    "default_sizes",
    "radix_latency_sweep",
    "RadixSweep",
    "SweepPoint",
    "SweepPointResult",
    "run_sweep",
    "simulate_point",
    "sweep_errors",
    "run_adapt_bench",
    "RecoveryPoint",
    "RecoveryRecord",
    "recovery_curve",
    "run_recovery_sweep",
    "summarize_recovery",
    "write_recovery_report",
    "speedup_curves",
    "SpeedupCurve",
    "SpeedupPoint",
    "policy_latency",
    "format_size",
    "format_table",
    "geomean",
    "speedup_str",
    "ExperimentResult",
    "ALL_EXPERIMENTS",
    "run_experiment",
]
