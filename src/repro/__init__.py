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

from .api import (
    BACKENDS,
    ENGINES,
    build,
    execute,
    simulate,
)
from .bench import (
    ALL_EXPERIMENTS,
    default_sizes,
    osu_latency,
    radix_latency_sweep,
    run_experiment,
    speedup_curves,
)
from .core import (
    COLLECTIVES,
    GENERALIZED_ALGORITHMS,
    Schedule,
    algorithms_for,
    verify,
)
from .errors import (
    ExecutionError,
    MachineError,
    ModelError,
    ObsError,
    RecoveryError,
    ReproError,
    ScheduleError,
    SelectionError,
    TraceError,
    ValidationError,
)
from .models import ModelParams, model_time, optimal_radix
from .obs import OBS, Obs
from .recovery import (
    RecoveryPolicy,
    RecoveryReport,
    RecoveryRun,
    SimRecoveryResult,
    execute_with_recovery,
    simulate_with_recovery,
)
from .runtime import SUM, Comm, ReduceOp, Session
from .selection import (
    SelectionTable,
    fixed_policy,
    mpich_policy,
    tune,
    vendor_policy,
)
from .simnet import (
    MachineSpec,
    NoiseModel,
    frontier,
    polaris,
    reference,
    traffic_summary,
)
from .simnet.machines import get as machine, resolve as resolve_machine

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
