"""The single public facade: ``build`` → ``simulate`` / ``execute``.

Everything the package can do funnels through three keyword-only entry
points, re-exported from :mod:`repro`:

* :func:`build` — compile a generalized collective algorithm to its
  :class:`~repro.core.schedule.Schedule` IR;
* :func:`simulate` — time a schedule on a simulated machine
  (discrete-event, multi-port, hierarchical);
* :func:`execute` — move real NumPy data through a schedule and check it
  against the collective's reference semantics, on either the lockstep
  or the genuinely threaded backend.

Keyword-only parameters are deliberate: positional counts, radices and
roots read as guess-what-this-is integers.  The facade makes every
count/radix/root explicit at the call site::

    import repro

    sched = repro.build("allreduce", "recursive_multiplying", p=64, k=4)
    res = repro.simulate(sched, repro.frontier(nodes=64, ppn=1),
                         nbytes=65536)
    run = repro.execute("allreduce", "recursive_multiplying",
                        p=16, count=1024, k=4)

The pre-facade spellings (the build-run-check helpers, ``build_schedule``,
``execute_threaded``, positional-``nbytes`` ``simulate``, schedule-first
``execute``) are **removed**.  :func:`execute` is the one pipeline from a
request to checked buffers: the implementation modules keep the pieces
it is made of (:func:`repro.runtime.execute`,
:func:`repro.runtime.execute_threaded`, the buffer helpers), not a second
copy of it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core.cache import global_schedule_cache
from .core.registry import build_schedule as _build_schedule
from .core.schedule import Schedule
from .errors import ExecutionError
from .obs import Obs
from .runtime.buffers import make_inputs
from .runtime.executor import BACKENDS, _check_backend, _run_checked
from .runtime.ops import SUM, ReduceOp
from .simnet.simulate import ENGINES, SimResult, simulate as _simulate
from .simnet.machines import resolve as _resolve_machine

__all__ = ["build", "simulate", "execute", "BACKENDS", "ENGINES"]

def build(
    collective: str,
    algorithm: str,
    *,
    p: int,
    k: Optional[int] = None,
    root: int = 0,
) -> Schedule:
    """Compile ``algorithm`` for ``collective`` over ``p`` ranks.

    ``k`` is the generalization radix (each algorithm's default when
    omitted); ``root`` matters only for rooted collectives.  Returns the
    validated :class:`~repro.core.schedule.Schedule` IR that every other
    entry point consumes.

    >>> import repro
    >>> repro.build("allreduce", "recursive_multiplying", p=9, k=3).nranks
    9
    """
    return _build_schedule(collective, algorithm, p, k=k, root=root)


def simulate(
    schedule: Schedule,
    machine,
    *,
    nbytes: int,
    noise=None,
    faults=None,
    timeline: bool = False,
    block_map=None,
    engine: str = "auto",
    obs: Optional[Obs] = None,
) -> SimResult:
    """Time ``schedule`` moving ``nbytes`` total on a simulated ``machine``.

    Keyword-only wrapper over :func:`repro.simnet.simulate`; ``timeline``
    requests per-message event collection, ``noise`` perturbs link costs,
    ``faults`` injects drops/crashes, and ``obs`` selects an
    observability scope (default: the process-global one — see
    :mod:`repro.obs`).

    ``machine`` is a :class:`~repro.simnet.machine.MachineSpec` or a
    registry name such as ``"dragonfly-1024"`` (see
    :func:`repro.simnet.machines.get`).  ``engine`` selects the
    simulation core — ``"auto"`` (default), ``"materialized"``, or
    ``"collapsed"`` (one representative per rank-equivalence class,
    sublinear in p; bit-identical, with recorded fallback on asymmetric
    runs — see :func:`repro.simnet.simulate.simulate`).
    """
    return _simulate(
        schedule,
        _resolve_machine(machine),
        nbytes,
        noise=noise,
        faults=faults,
        collect_timeline=timeline,
        block_map=block_map,
        engine=engine,
        obs=obs,
    )


def execute(
    collective: str,
    algorithm: str,
    *,
    p: int,
    count: int,
    backend: str = "lockstep",
    k: Optional[int] = None,
    root: int = 0,
    op: ReduceOp = SUM,
    dtype: np.dtype = np.dtype(np.int64),
    seed: int = 0,
    check: bool = True,
    rtol: float = 0.0,
    atol: float = 0.0,
    timeout: Optional[float] = None,
    faults=None,
    recovery=None,
    adapt=None,
    adapt_policy=None,
    machine=None,
    select: Optional[str] = None,
    obs: Optional[Obs] = None,
):
    """Build, run, and check a collective end to end on real data.

    The package's one build → run → check pipeline, on either backend:
    ``backend="lockstep"`` runs the deterministic matching engine
    in-process, ``backend="threaded"`` runs one real thread per rank over
    channels (``timeout`` and ``faults`` apply only there: the threaded
    backend waits 30 s when ``timeout`` is None, and any ``timeout`` or
    ``faults`` on lockstep is an :class:`~repro.errors.ExecutionError`,
    with or without ``recovery``).  The schedule comes from the
    process-global schedule cache, so repeated calls share one built
    (and compiled) schedule.  Inputs are seeded (``seed``) so runs are
    reproducible; ``check=True`` verifies every rank's output against the
    collective's reference semantics.  Returns a
    :class:`~repro.runtime.executor.CollectiveRun` with the schedule,
    inputs, final buffers, and expected outputs.

    ``recovery`` turns on self-healing: a mode string (``"abort"`` /
    ``"shrink"`` / ``"spare"``) or a
    :class:`~repro.recovery.RecoveryPolicy`.  Injected failures then
    trigger detect→shrink→rebuild→rerun rounds instead of raising, and
    the return value is a :class:`~repro.recovery.RecoveryRun` (same
    schedule/buffers/expected fields, plus the survivor mapping and the
    :class:`~repro.recovery.RecoveryReport`).

    ``adapt`` turns on online adaptive selection: a scenario name
    (``"flap"``, ``"migrate"``, ``"contention"``, ``"calm"``) or an
    :class:`~repro.adapt.AdaptScenario`.  The adaptive loop
    (:func:`repro.adapt.run_adaptive`) first runs against the simulated
    ``machine`` (a spec or registry name; default: Frontier-shaped,
    ``p`` nodes x 1 rank) under the scenario's drift, then the winning
    ``(algorithm, k)`` executes on the requested backend and the return
    value is an :class:`~repro.adapt.AdaptiveRun` (report + run).  The
    caller's ``algorithm``/``k`` are the fallback executed if the loop's
    ladder aborts — graceful degradation, never an exception.
    ``adapt_policy`` overrides the knobs
    (:class:`~repro.adapt.AdaptPolicy`).  With ``adapt=None`` (the
    default) none of this machinery runs: the path below is exactly the
    pre-adaptive one, bit for bit.

    ``select`` delegates the algorithm choice to a running tuning
    service (:mod:`repro.server`): pass its base URL
    (``select="http://127.0.0.1:8080"``) and the service's tuned
    ``(algorithm, k)`` for ``(collective, p, count × itemsize)``
    replaces the caller's ``algorithm``/``k`` before the normal path
    runs.  Mutually exclusive with ``adapt`` — one oracle per run.  The
    served choice is bit-identical to the in-process tuner's, so a run
    through ``select=`` matches a run tuned locally.

    >>> import numpy as np, repro
    >>> run = repro.execute("allreduce", "recursive_multiplying",
    ...                     p=9, count=17, k=3)
    >>> bool(np.array_equal(run.buffers[0], run.expected[0]))
    True
    """
    _check_backend(backend, timeout=timeout, faults=faults)
    if select is not None:
        if adapt is not None:
            raise ExecutionError(
                "select= and adapt= are mutually exclusive: the tuning "
                "service and the adaptive loop are both choice oracles"
            )
        from .server.client import TuningClient

        choice = TuningClient(select).select(
            collective, p, count * np.dtype(dtype).itemsize
        )
        algorithm, k = choice.algorithm, choice.k
    if adapt is not None:
        from .adapt.loop import AdaptiveRun, run_adaptive
        from .adapt.scenarios import get_scenario
        from .adapt.selector import DEFAULT_POLICY
        from .selection.table import Choice
        from .simnet.machines import frontier

        scenario = (
            get_scenario(adapt, p) if isinstance(adapt, str) else adapt
        )
        mach = (
            _resolve_machine(machine)
            if machine is not None
            else frontier(nodes=p, ppn=1)
        )
        report = run_adaptive(
            collective,
            mach,
            count * np.dtype(dtype).itemsize,
            rounds=scenario.rounds,
            phased=scenario.phased,
            contention=scenario.contention,
            root=root,
            policy=adapt_policy if adapt_policy is not None else DEFAULT_POLICY,
            seed=seed,
        )
        choice = (
            Choice(algorithm, k) if report.aborted else report.final_choice
        )
        run = execute(
            collective,
            choice.algorithm,
            p=p,
            count=count,
            backend=backend,
            k=choice.k,
            root=root,
            op=op,
            dtype=dtype,
            seed=seed,
            check=check,
            rtol=rtol,
            atol=atol,
            timeout=timeout,
            faults=faults,
            recovery=recovery,
            obs=obs,
        )
        return AdaptiveRun(report=report, run=run, choice=choice)
    if machine is not None:
        raise ExecutionError(
            "machine applies only with adapt= (execution backends are "
            "machine-free; simulation machines live in repro.simulate)"
        )
    if recovery is not None:
        from .recovery import execute_with_recovery

        return execute_with_recovery(
            collective,
            algorithm,
            p=p,
            count=count,
            recovery=recovery,
            backend=backend,
            k=k,
            root=root,
            op=op,
            dtype=dtype,
            seed=seed,
            check=check,
            rtol=rtol,
            atol=atol,
            timeout=timeout,
            faults=faults,
        )
    schedule, _ = global_schedule_cache().get_or_build(
        collective, algorithm, p, k=k, root=root
    )
    rng = np.random.default_rng(seed)
    inputs = make_inputs(collective, p, count, dtype=dtype, root=root, rng=rng)
    return _run_checked(
        schedule, inputs, count, backend=backend, op=op, dtype=dtype,
        check=check, rtol=rtol, atol=atol, timeout=timeout, faults=faults,
        obs=obs,
    )
