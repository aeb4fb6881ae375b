"""Golden regression tests: exact pinned costs under ``tests/golden/``.

Two layers of the cost stack are frozen to the last digit:

* the analytical (α, β, γ) model predictions (:func:`repro.models
  .model_time`), and
* the discrete-event simulator's times on the model-exact reference
  machine — via the **cached** sweep-engine path, so any schedule-cache
  or memo bug that perturbed a result would show up here, not just in
  the property tests.

The matrix crosses one generalized algorithm per collective family
(k-nomial bcast/reduce, recursive multiplying allreduce, k-ring
allgather) with p ∈ {8, 16}, k ∈ {2, 4}, and a small and a large
message.  Any refactor of the engine, runner, cache, or builders must
reproduce these numbers bit-for-bit; an intentional cost-model change
regenerates them with::

    pytest tests/test_golden_costs.py --update-golden

and justifies the diff in the commit message.

The compiled execution path (:mod:`repro.compile`) is pinned twice
over: the compiled simulator feed must reproduce the *same* golden
times as the interpreted feed (one golden file serves both, which is
the transparency contract made regression-proof), and the compiled
program artifact itself — fingerprint and table shape for the 8-rank
k-nomial — is frozen in ``tests/golden/compiled_programs.json`` so a
lowering change that reorders or re-encodes tables is loud even when
execution results happen to survive it.
"""

from __future__ import annotations

from repro.bench.sweep import SweepPoint, clear_sim_memo, simulate_point
from repro.compile import compile_schedule
from repro.core.registry import build_schedule
from repro.models import ModelParams, model_time
from repro.simnet.machines import reference
from repro.simnet.simulate import simulate

#: (collective, algorithm) — one generalized algorithm per family.
CASES = [
    ("bcast", "knomial"),
    ("reduce", "knomial"),
    ("allreduce", "recursive_multiplying"),
    ("allgather", "kring"),
]
PS = [8, 16]
KS = [2, 4]
SIZES = [1024, 65536]


def _key(collective: str, algorithm: str, p: int, k: int, nbytes: int) -> str:
    return f"{collective}/{algorithm}/p{p}/k{k}/n{nbytes}"


def test_model_costs_pinned(golden):
    """The analytical model's exact outputs on reference-machine constants."""
    params = ModelParams.from_machine(reference(8))
    actual = {
        _key(coll, alg, p, k, n): model_time(coll, alg, n, p, params, k=k)
        for coll, alg in CASES
        for p in PS
        for k in KS
        for n in SIZES
    }
    golden("model_costs").check(actual)


def test_simulated_costs_pinned(golden):
    """The simulator's exact times (µs) on the reference machine.

    Every point is simulated twice — a fresh build + fresh run, and the
    sweep engine's cached path — and the two must agree exactly before
    being compared against the golden file.  Both walk the compiled
    simulator feed (the only one), so this is also its golden pass.
    """
    clear_sim_memo()
    actual = {}
    for coll, alg in CASES:
        for p in PS:
            machine = reference(p)
            for k in KS:
                schedule = build_schedule(coll, alg, p, k=k)
                for n in SIZES:
                    fresh = simulate(schedule, machine, n).time_us
                    cached = simulate_point(
                        machine, SweepPoint(coll, alg, n, k=k)
                    ).time_us
                    assert cached == fresh, (
                        f"cached path diverged from fresh simulation at "
                        f"{_key(coll, alg, p, k, n)}"
                    )
                    actual[_key(coll, alg, p, k, n)] = fresh
    golden("simulated_costs").check(actual)


def test_compiled_program_fingerprint_pinned(golden):
    """The 8-rank k-nomial's compiled artifact, frozen shape and all.

    The fingerprint hashes every program table (peers, offsets, sizes,
    op codes, tags, step boundaries), so any lowering change — a
    reordered op, a re-encoded offset, a dropped fusion boundary —
    changes it even when execution results survive.  Table counts are
    pinned alongside as the human-readable part of the diff.
    """
    actual = {}
    for coll in ("bcast", "reduce"):
        for k in KS:
            schedule = build_schedule(coll, "knomial", 8, k=k)
            compiled = compile_schedule(schedule)
            key = f"{coll}/knomial/p8/k{k}"
            actual[f"{key}/fingerprint"] = compiled.fingerprint()
            actual[f"{key}/total_ops"] = compiled.total_ops()
            actual[f"{key}/nsteps"] = max(
                prog.nsteps for prog in compiled.programs
            )
    golden("compiled_programs").check(actual)
