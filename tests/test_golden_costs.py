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

The reference machine is contention-free, so a third file pins what it
cannot: ``tests/golden/des_corners.json`` holds whole ``SimResult``s on
contended machines — every tie-break, hand-over and release order shows
in some rank time or timeline row — written by the generator-per-message
engine the flat kernel (:mod:`repro.simnet.kernel`) replaced.  It is the
record of that engine's answers: it is ``frozen`` — compared, never
rewritten, even under ``--update-golden`` — because a difference there
is a bug in the kernel.

Last, the end of the pipeline: a cold ``tune`` on three small machines
must serialize to the same selection-config bytes (sha256 prefixes in
:data:`TUNE_SHA256`).  The document holds a timing row for every
simulated point, so a time that moves anywhere in a sweep moves its
hash.
"""

from __future__ import annotations

import hashlib

import pytest
from conftest import GoldenFile

from repro.bench.sweep import SweepPoint, clear_sim_memo, simulate_point
from repro.compile import compile_schedule
from repro.core.registry import build_schedule, info
from repro.faults.plan import Crash, FaultPlan, LinkFault, RetryPolicy, Straggler
from repro.models import ModelParams, model_time
from repro.selection.tuner import tune
from repro.simnet import DragonflySpec, NoiseModel, frontier, polaris
from repro.simnet.machines import reference, resolve
from repro.simnet.simulate import simulate
from oracle import SendOp, programs_of

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


def lowering_fingerprint(compiled) -> str:
    """A sha256 over what lowering produces: the labels and source
    fingerprint, ``|P`` + every rank program's ``table_bytes()``, then
    ``|G`` + every send payload signature, sorted.

    The artifact carries no hash of its own (nothing that serves or
    stores it read one); this is the pin's, byte for byte the digest the
    golden file was written with.
    """
    h = hashlib.sha256()
    h.update(
        f"{compiled.collective}|{compiled.algorithm}|{compiled.nranks}|"
        f"{compiled.nblocks}|{compiled.root}|{compiled.k}|"
        f"{compiled.source_fingerprint}".encode()
    )
    for prog in compiled.programs:
        h.update(b"|P")
        h.update(prog.table_bytes())
    for sig in sorted(compiled.columns.signatures):
        h.update(("|G" + ",".join(map(str, sig))).encode())
    return h.hexdigest()


def test_compiled_program_fingerprint_pinned(golden):
    """The 8-rank k-nomial's compiled artifact, frozen shape and all.

    :func:`lowering_fingerprint` hashes every program table (peers,
    offsets, sizes, op codes, tags, step boundaries) and the send
    payload signatures, so any lowering change — a reordered op, a
    re-encoded offset, a shifted step boundary — changes it even when
    execution results survive.  Table counts are pinned alongside as the human-readable
    part of the diff.
    """
    actual = {}
    for coll in ("bcast", "reduce"):
        for k in KS:
            schedule = build_schedule(coll, "knomial", 8, k=k)
            compiled = compile_schedule(schedule)
            key = f"{coll}/knomial/p8/k{k}"
            actual[f"{key}/fingerprint"] = lowering_fingerprint(compiled)
            actual[f"{key}/total_ops"] = compiled.total_ops()
            actual[f"{key}/nsteps"] = max(
                prog.nsteps for prog in compiled.programs
            )
    golden("compiled_programs").check(actual)


#: (collective, algorithm, root) — one algorithm per family, contended.
CORNER_CASES = [
    ("bcast", "knomial", 0),
    ("reduce", "knomial", 3),
    ("allreduce", "recursive_multiplying", 0),
    ("allgather", "kring", 0),
    ("allreduce", "kring", 0),
    ("alltoall", "pairwise", 0),
    ("bcast", "pipelined_chain", 0),
]
CORNER_PS = [12, 16]
CORNER_SIZES = [0, 7, 65537]


def _corner_machines(p: int) -> dict:
    """``frontier-Nx4``, its five one-knob variants, and ``polaris-Nx2``."""
    base = frontier(p // 4, 4)
    machines = {
        "frontier": base,
        "o0": base.with_(injection_overhead=0.0),
        "1ch1port": base.with_(intra_channels=1, nic_ports=1),
        "rr": base.with_(placement="round_robin"),
        "g0": base.with_(gamma=0.0),
        "polaris": polaris(p // 2, 2),
    }
    if base.nodes % 2 == 0:  # two-node groups, one global channel each
        machines["gc1"] = base.with_(dragonfly=DragonflySpec(
            nodes_per_group=2,
            alpha_global=base.dragonfly.alpha_global,
            global_channels=1,
        ))
    return machines


def _corner_faults(schedule) -> dict:
    """Loss with retransmissions, a dead link, crash + straggler."""
    src, dst = next(
        (prog.rank, op.peer) for prog in programs_of(schedule)
        for _, op in prog.iter_ops() if isinstance(op, SendOp)
    )
    return {
        "loss": FaultPlan(drop_rate=0.3, dup_rate=0.1, delay_rate=0.2,
                          seed=2),
        "deadlink": FaultPlan(
            seed=3, links=(LinkFault(src, dst, drop_rate=1.0),),
            retry=RetryPolicy(max_retries=2),
        ),
        "crash": FaultPlan(
            seed=5, crashes=(Crash(rank=schedule.nranks // 2, step=0),),
            stragglers=(Straggler(rank=1, factor=3.0),),
        ),
    }


def _pin(res) -> list:
    """``[makespan, digest of everything else]`` — two short strings."""
    rest = (
        list(res.rank_times), res.messages, res.intra_messages,
        res.inter_messages, res.global_messages, res.intra_bytes,
        res.inter_bytes, res.retransmissions, res.failed_ranks,
        res.stalled_ranks, res.timeline,
    )
    return [repr(res.time),
            hashlib.sha256(repr(rest).encode()).hexdigest()[:16]]


def test_simulated_corners_pinned(golden):
    """Whole results under contention, as the generator engine gave them.

    Every (family, p, k) on every corner machine at three sizes with a
    timeline, plus a σ = 0.3 noise row and three fault rows per family on
    the 1-channel / 1-port machine — where release order, the synchronous
    hand-over and FIFO parking decide the numbers.
    """
    actual = {}
    for coll, alg, root in CORNER_CASES:
        for p in CORNER_PS:
            machines = _corner_machines(p)
            ks = (2, 3, p) if info(coll, alg).takes_k else (None,)
            for k in ks:
                schedule = build_schedule(coll, alg, p, k=k, root=root)
                key = f"{coll}/{alg}/p{p}/k{k or 0}"
                for mname, machine in machines.items():
                    for n in CORNER_SIZES:
                        actual[f"{key}/{mname}/n{n}"] = _pin(simulate(
                            schedule, machine, n, collect_timeline=True
                        ))
                if k != ks[0] or p != CORNER_PS[-1]:
                    continue  # one noise + three fault rows per family
                tight = machines["1ch1port"]
                actual[f"{key}/noise"] = _pin(simulate(
                    schedule, tight, 65537, collect_timeline=True,
                    noise=NoiseModel(sigma=0.3, seed=7),
                ))
                seen = {}
                for fname, plan in _corner_faults(schedule).items():
                    seen[fname] = simulate(
                        schedule, tight, 65537, collect_timeline=True,
                        faults=plan,
                    )
                    actual[f"{key}/{fname}"] = _pin(seen[fname])
                assert seen["loss"].retransmissions and seen["loss"].complete
                assert seen["deadlink"].stalled_ranks, key
                assert not seen["crash"].complete, key
    assert 200 <= len(actual) <= 1000
    golden("des_corners", frozen=True).check(actual)


def test_frozen_golden_survives_update(tmp_path):
    """``--update-golden`` compares a frozen file instead of rewriting."""
    pinned = GoldenFile("pinned", update=True, frozen=True)
    pinned.path = tmp_path / "pinned.json"
    pinned.path.write_text('{"a": 1}\n')
    pinned.check({"a": 1})
    with pytest.raises(AssertionError, match="frozen"):
        pinned.check({"a": 2})
    assert pinned.path.read_text() == '{"a": 1}\n'


#: sha256 prefix of ``tune(machine, (8, 65536, 1 << 20)).to_json()``.
TUNE_SHA256 = {
    "frontier-4x4": "bf0b7a72f8240e90",
    "frontier-8x4": "4a6f9df5c9dfb2bb",
    "polaris-4x2": "fc1147b2f597f8c7",
}


@pytest.mark.parametrize("machine", sorted(TUNE_SHA256))
def test_cold_tune_document_pinned(machine):
    """A cold tune (empty simulation memo) serializes to the pinned
    selection-config bytes."""
    clear_sim_memo()
    doc = tune(resolve(machine), (8, 65536, 1 << 20)).to_json()
    digest = hashlib.sha256(doc.encode()).hexdigest()[:16]
    assert digest == TUNE_SHA256[machine]
