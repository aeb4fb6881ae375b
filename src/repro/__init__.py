"""repro — Generalized collective algorithms for the exascale era.

A from-scratch Python reproduction of Wilkins et al., *Generalized
Collective Algorithms for the Exascale Era* (IEEE CLUSTER 2023):
variable-radix generalizations of the binomial tree (k-nomial), recursive
doubling (recursive multiplying) and ring (k-ring) collective kernels,
plus everything needed to evaluate them without an exascale machine —

* :mod:`repro.core` — the generalized algorithms, compiled to an explicit
  per-rank schedule IR, with a symbolic correctness validator;
* :mod:`repro.runtime` — executors that move real NumPy data through the
  schedules (lockstep and genuinely threaded);
* :mod:`repro.simnet` — a discrete-event simulator of multi-port,
  hierarchical, dragonfly-connected machines (Frontier-like and
  Polaris-like configurations included);
* :mod:`repro.models` — the paper's analytical α–β–γ cost models
  (eqs. (1)–(14)) with fitting and optimal-radix prediction;
* :mod:`repro.selection` — MPICH-style algorithm selection tables, the
  default/vendor baseline policies, and the exhaustive tuner (§VI-G);
* :mod:`repro.bench` — OSU-style measurement and one runnable experiment
  per paper table/figure;
* :mod:`repro.obs` — opt-in metrics and span tracing across all of the
  above, with Perfetto/Chrome trace export.

The public API is three keyword-only entry points (see :mod:`repro.api`):

Quickstart::

    import repro

    # Move real data through a generalized algorithm and check it:
    run = repro.execute("allreduce", "recursive_multiplying",
                        p=16, count=1024, k=4)

    # Time the same algorithm on a simulated exascale machine:
    machine = repro.frontier(nodes=128, ppn=1)
    sched = repro.build("allreduce", "recursive_multiplying",
                        p=machine.nranks, k=4)
    print(repro.simulate(sched, machine, nbytes=65536).time_us, "us")

Machines are addressable by registry name (``repro.simnet.machines.get``
— e.g. ``repro.simulate(sched, "dragonfly-1024", nbytes=65536)``), and
``simulate`` picks its simulation core itself (``engine="auto"``: the
class-collapsed large-p core — one actor per rank-equivalence class,
:mod:`repro.compile.classes` — where it is exact); ``engine="materialized"|"collapsed"`` forces one, and no sweep,
tuner or service above it takes the option.

The pre-facade spellings (the build-run-check helpers,
``repro.build_schedule``, ``repro.execute_threaded``, schedule-first
``repro.execute``, positional-``nbytes`` ``repro.simulate``) have been
removed after their five-release deprecation window; ``repro.execute``
is the one build → run → check pipeline.
"""

import importlib as _importlib


def _lazy_exports(package, namespace, table):
    """The ``(__getattr__, __dir__)`` pair of a lazy package (PEP 562).

    ``package`` is the package's ``__name__``, ``namespace`` its
    ``globals()``, and ``table`` maps each exported name to the relative
    module that defines it (``".api"``, ``"..errors"``), followed by
    ``":attr"`` where the defining name differs.  Importing the package
    runs no submodule; the first access to a name imports its module and
    stores the value in ``namespace``, so later lookups — and ``from pkg
    import name`` — are plain dictionary hits.  An attribute that names a
    submodule imports it; any other name raises :class:`AttributeError`.
    """

    def __getattr__(name):
        target = table.get(name)
        if target is None:
            if name.isidentifier() and not name.startswith("__"):
                qualified = f"{package}.{name}"
                try:
                    return _importlib.import_module(qualified)
                except ModuleNotFoundError as exc:
                    if exc.name != qualified:
                        raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}", name=name
            )
        module, _, attr = target.partition(":")
        value = getattr(_importlib.import_module(module, package), attr or name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *table})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    "BACKENDS": ".runtime.executor",
    "ENGINES": ".simnet.simulate",
    "build": ".api",
    "execute": ".api",
    "simulate": ".api",
    "ALL_EXPERIMENTS": ".bench.experiments",
    "default_sizes": ".bench.osu",
    "osu_latency": ".bench.osu",
    "radix_latency_sweep": ".bench.sweep",
    "run_experiment": ".bench.experiments",
    "speedup_curves": ".bench.speedup",
    "COLLECTIVES": ".core.registry",
    "GENERALIZED_ALGORITHMS": ".core.registry",
    "Schedule": ".core.schedule",
    "algorithms_for": ".core.registry",
    "verify": ".core.validate",
    "ExecutionError": ".errors",
    "MachineError": ".errors",
    "ModelError": ".errors",
    "ObsError": ".errors",
    "RecoveryError": ".errors",
    "ReproError": ".errors",
    "ScheduleError": ".errors",
    "SelectionError": ".errors",
    "TraceError": ".errors",
    "ValidationError": ".errors",
    "ModelParams": ".models.params",
    "model_time": ".models",
    "optimal_radix": ".models.optimal",
    "OBS": ".obs",
    "Obs": ".obs",
    "RecoveryPolicy": ".recovery.policy",
    "RecoveryReport": ".recovery.policy",
    "RecoveryRun": ".recovery.execute",
    "SimRecoveryResult": ".recovery.sim",
    "execute_with_recovery": ".recovery.execute",
    "simulate_with_recovery": ".recovery.sim",
    "SUM": ".runtime.ops",
    "Comm": ".runtime.session",
    "ReduceOp": ".runtime.ops",
    "Session": ".runtime.session",
    "SelectionTable": ".selection.table",
    "fixed_policy": ".selection.defaults",
    "mpich_policy": ".selection.defaults",
    "tune": ".selection.tuner",
    "vendor_policy": ".selection.defaults",
    "MachineSpec": ".simnet.machine",
    "NoiseModel": ".simnet.noise",
    "frontier": ".simnet.machines",
    "polaris": ".simnet.machines",
    "reference": ".simnet.machines",
    "traffic_summary": ".simnet.simulate",
    "machine": ".simnet.machines:get",
    "resolve_machine": ".simnet.machines:resolve",
})

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # facade (the public API — see repro.api)
    "build",
    "simulate",
    "execute",
    "BACKENDS",
    "ENGINES",
    # core
    "Schedule",
    "verify",
    "COLLECTIVES",
    "GENERALIZED_ALGORITHMS",
    "algorithms_for",
    # runtime
    "ReduceOp",
    "SUM",
    "Session",
    "Comm",
    # simnet
    "MachineSpec",
    "frontier",
    "polaris",
    "reference",
    "machine",
    "resolve_machine",
    "traffic_summary",
    "NoiseModel",
    # observability
    "Obs",
    "OBS",
    # models
    "ModelParams",
    "model_time",
    "optimal_radix",
    # selection
    "SelectionTable",
    "mpich_policy",
    "vendor_policy",
    "fixed_policy",
    "tune",
    # bench
    "osu_latency",
    "default_sizes",
    "radix_latency_sweep",
    "speedup_curves",
    "run_experiment",
    "ALL_EXPERIMENTS",
    # recovery (self-healing collectives — see repro.recovery)
    "RecoveryPolicy",
    "RecoveryReport",
    "RecoveryRun",
    "SimRecoveryResult",
    "execute_with_recovery",
    "simulate_with_recovery",
    # errors
    "ReproError",
    "ScheduleError",
    "ValidationError",
    "ExecutionError",
    "MachineError",
    "SelectionError",
    "ModelError",
    "TraceError",
    "ObsError",
    "RecoveryError",
]
