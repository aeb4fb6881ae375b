"""Regret and time-to-adapt benchmark for the online selection loop.

:func:`run_adapt_bench` drives :func:`repro.adapt.run_adaptive` through
a named drift scenario and reduces the trail to the numbers the perf
gate and ``adapt_report.json`` care about:

* **regret** — cumulative effective time paid over the per-round oracle
  (an omniscient re-pick every round), and the **static regret** the
  fixed healthy winner would have paid — adaptivity earns its keep only
  while ``regret < static_regret``;
* **time-to-adapt** — rounds from each phase change until the running
  arm matches the oracle's post-change winner;
* **jobs invariance** — the whole report re-run at a different sweep
  fan-out must be bit-identical (simulation is pure; the loop inherits
  :mod:`repro.bench.sweep`'s determinism guarantee).

Everything here is seeded and machine-free of wall clocks, so reports
diff cleanly across commits.
"""

from __future__ import annotations

import json
from typing import Optional, Union

from ..adapt.loop import run_adaptive
from ..adapt.scenarios import get_scenario
from ..adapt.selector import DEFAULT_POLICY, AdaptPolicy
from ..simnet.machine import MachineSpec

__all__ = ["run_adapt_bench"]


def run_adapt_bench(
    machine: Union[str, MachineSpec],
    *,
    collective: str = "allreduce",
    nbytes: int = 65536,
    scenario: str = "flap",
    rounds: Optional[int] = None,
    policy: AdaptPolicy = DEFAULT_POLICY,
    jobs: int = 0,
    check_jobs: Optional[int] = 2,
    seed: int = 0,
) -> dict:
    """Run the adaptive loop through ``scenario``; return the report dict.

    The dict is what ``repro-adapt -o adapt_report.json`` writes: the
    full :class:`~repro.adapt.AdaptReport` trail plus the reduced bench
    metrics (``regret``, ``static_regret``, ``regret_ratio``,
    ``time_to_adapt``, ``max_time_to_adapt``).  With ``check_jobs`` set
    (default 2) the loop is re-run at that sweep fan-out and the two
    trails compared bit for bit; the verdict lands in
    ``jobs_invariant``.  ``rounds`` overrides the scenario's
    recommended round count.
    """
    from ..simnet.machines import resolve as resolve_machine

    machine = resolve_machine(machine)
    sc = get_scenario(scenario, machine.nranks, seed=seed)
    nrounds = int(rounds) if rounds is not None else sc.rounds

    def one(njobs: int):
        return run_adaptive(
            collective,
            machine,
            nbytes,
            rounds=nrounds,
            phased=sc.phased,
            contention=sc.contention,
            policy=policy,
            jobs=njobs,
            seed=seed,
        )

    report = one(jobs)
    jobs_invariant = True
    if check_jobs is not None and check_jobs != jobs:
        other = one(check_jobs)
        jobs_invariant = json.dumps(
            report.to_dict(), sort_keys=True
        ) == json.dumps(other.to_dict(), sort_keys=True)
    tta = report.time_to_adapt
    reached = [v for v in tta.values() if v is not None]
    out = report.to_dict()
    out["scenario"] = scenario
    out["jobs"] = jobs
    out["jobs_invariant"] = jobs_invariant
    out["regret_ratio"] = (
        report.regret / report.static_regret
        if report.static_regret > 0.0
        else None
    )
    out["max_time_to_adapt"] = max(reached) if reached else None
    out["adapted_all_changes"] = len(reached) == len(tta)
    return out
