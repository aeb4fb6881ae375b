"""The composites' column transforms against their op-object reference.

:func:`~repro.core.primitives.compose`,
:func:`~repro.core.primitives.dualize_allgather`,
:func:`~repro.core.hierarchical.remap_ranks` and
``hierarchical_allreduce``'s per-node phases rearrange their parts'
:class:`~repro.core.schedule.Columns` as whole arrays.  The ``reference_*``
functions below are the bodies they replaced, op object by op object,
kept verbatim as the oracle (like ``reference_lowering`` in
``tests/test_schedule_ir.py`` and ``tests/oracle.py``).  Over the
``repro-check --all`` grid and a hierarchical grid, every column, the
payload signatures, ``fingerprint()`` and ``meta`` must be equal — and so
must every refusal text.
"""

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

import repro.core.baselines
import repro.core.knomial
import repro.core.recursive
import repro.core.registry
import repro.core.ring
from repro.bench.checksweep import grid_points
from repro.core.cache import ScheduleCache
from repro.core.hierarchical import hierarchical_allreduce, remap_ranks
from repro.core.knomial import knomial_bcast, knomial_reduce
from repro.core.primitives import compose, dualize_allgather
from repro.core.registry import build_schedule, info
from repro.core.schedule import (
    Columns,
    Schedule,
)
from repro.errors import ScheduleError
from oracle import (
    CopyOp,
    Op,
    RankProgram,
    RecvOp,
    SendOp,
    empty_programs,
    from_programs,
    programs_of,
)

# ----------------------------------------------------------------------
# The reference: the op-object bodies the transforms replaced
# ----------------------------------------------------------------------


def reference_concat_programs(
    first: Sequence[RankProgram], second: Sequence[RankProgram]
) -> List[RankProgram]:
    """Sequential composition: every rank runs ``first`` then ``second``.

    Correct because the runner's per-channel FIFO matching is global across
    the concatenated program, and each phase is internally matched — phase
    boundaries therefore never interleave messages across phases for any
    (src, dst) pair out of order.
    """
    if len(first) != len(second):
        raise ScheduleError(
            f"cannot concatenate programs for {len(first)} and "
            f"{len(second)} ranks"
        )
    return [
        RankProgram(rank=a.rank, steps=[*a.steps, *b.steps])
        for a, b in zip(first, second)
    ]


def reference_compose(
    collective: str,
    algorithm: str,
    phases: Sequence[Schedule],
    *,
    root: Optional[int] = None,
    k: Optional[int] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Schedule:
    """Build a composite schedule from sequential phases.

    All phases must agree on ``nranks`` and ``nblocks``.  Phase names are
    recorded in the composite's ``meta`` for reporting.
    """
    if not phases:
        raise ScheduleError("compose needs at least one phase")
    p = phases[0].nranks
    nb = phases[0].nblocks
    for ph in phases[1:]:
        if ph.nranks != p or ph.nblocks != nb:
            raise ScheduleError(
                f"phase {ph.describe()} disagrees on geometry with "
                f"{phases[0].describe()}"
            )
    programs = programs_of(phases[0])
    for ph in phases[1:]:
        programs = reference_concat_programs(programs, programs_of(ph))
    full_meta: Dict[str, object] = {"phases": [ph.describe() for ph in phases]}
    if meta:
        full_meta.update(meta)
    return from_programs(
        collective=collective,
        algorithm=algorithm,
        nranks=p,
        nblocks=nb,
        programs=programs,
        root=root,
        k=k,
        meta=full_meta,
    )


def reference_dualize_allgather(allgather: Schedule, algorithm: str) -> Schedule:
    """Time-reverse an allgather into its dual reduce-scatter."""
    if allgather.collective != "allgather":
        raise ScheduleError(
            f"dualize_allgather expects an allgather schedule, got "
            f"{allgather.collective}"
        )
    # Structural precondition: each block must reach each rank exactly once,
    # and never return to the rank that contributed it.  (Re-receipt would
    # reverse into a double-counted reduction.)
    for prog in programs_of(allgather):
        seen = {prog.rank}  # a rank "has" its own block from the start
        for _, op in prog.iter_ops():
            if isinstance(op, RecvOp):
                for b in op.blocks:
                    if b in seen:
                        raise ScheduleError(
                            f"cannot dualize {allgather.describe()}: rank "
                            f"{prog.rank} receives block {b} more than once"
                        )
                    seen.add(b)
    # The dual names its blocks through tuples of its own, aliased among
    # its ops as the allgather's are among its: the allgather may be a
    # shared phase that sits beside this dual in one composite, and a
    # composite pickles (store entries, wire blobs) to the same bytes
    # whether or not its phases were shared.
    own: Dict[int, Tuple[int, ...]] = {}

    def own_blocks(blocks: Tuple[int, ...]) -> Tuple[int, ...]:
        twin = own.get(id(blocks))
        if twin is None:
            twin = own[id(blocks)] = (*blocks,)
        return twin

    programs: List[RankProgram] = []
    for prog in programs_of(allgather):
        dual = RankProgram(rank=prog.rank)
        for step in reversed(prog.steps):
            ops: List[Op] = []
            # Receives must be flipped to sends first within a step so the
            # runner snapshots them before any same-step reduction applies;
            # op ordering within a step has no timing meaning otherwise.
            for op in step.ops:
                if isinstance(op, RecvOp):
                    if op.reduce:
                        raise ScheduleError(
                            "cannot dualize an allgather containing "
                            "reducing receives"
                        )
                    ops.append(SendOp(peer=op.peer, blocks=own_blocks(op.blocks)))
            for op in step.ops:
                if isinstance(op, SendOp):
                    ops.append(
                        RecvOp(
                            peer=op.peer,
                            blocks=own_blocks(op.blocks),
                            reduce=True,
                        )
                    )
                elif isinstance(op, CopyOp):
                    raise ScheduleError(
                        "cannot dualize an allgather containing local copies"
                    )
            dual.add_step(ops)
        programs.append(dual)
    return from_programs(
        collective="reduce_scatter",
        algorithm=algorithm,
        nranks=allgather.nranks,
        nblocks=allgather.nblocks,
        programs=programs,
        root=None,
        k=allgather.k,
        meta={"dual_of": allgather.describe()},
    )


def reference_remap_ranks(
    schedule: Schedule, mapping: Sequence[int], nranks: int
) -> Schedule:
    """Embed a schedule built for a small group into a larger rank space."""
    if len(mapping) != schedule.nranks:
        raise ScheduleError(
            f"mapping covers {len(mapping)} ranks but schedule has "
            f"{schedule.nranks}"
        )
    if len(set(mapping)) != len(mapping):
        raise ScheduleError("rank mapping must be injective")
    for g in mapping:
        if not 0 <= g < nranks:
            raise ScheduleError(f"mapped rank {g} out of range for {nranks}")

    programs = empty_programs(nranks)
    for local, prog in enumerate(programs_of(schedule)):
        target = RankProgram(rank=mapping[local])
        for step in prog.steps:
            ops = []
            for op in step.ops:
                if isinstance(op, SendOp):
                    ops.append(SendOp(peer=mapping[op.peer], blocks=op.blocks))
                elif isinstance(op, RecvOp):
                    ops.append(
                        RecvOp(
                            peer=mapping[op.peer],
                            blocks=op.blocks,
                            reduce=op.reduce,
                        )
                    )
                else:
                    ops.append(op)
            target.add_step(ops)
        programs[mapping[local]] = target
    return from_programs(
        collective=schedule.collective,
        algorithm=schedule.algorithm,
        nranks=nranks,
        nblocks=schedule.nblocks,
        programs=programs,
        root=mapping[schedule.root] if schedule.root is not None else None,
        k=schedule.k,
        meta={**schedule.meta, "remapped_from": schedule.nranks},
    )


def reference_hierarchical_allreduce(
    p: int,
    ppn: int,
    *,
    intra_k: int = 2,
    leader_algorithm: str = "recursive_multiplying",
    leader_k: Optional[int] = None,
) -> Schedule:
    """Two-level allreduce: intranode k-nomial reduce → internode
    allreduce among node leaders → intranode k-nomial bcast."""
    if p < 1 or ppn < 1:
        raise ScheduleError(f"need p >= 1 and ppn >= 1, got {p}, {ppn}")
    if p % ppn != 0:
        raise ScheduleError(
            f"hierarchical composition needs ppn | p ({ppn} does not "
            f"divide {p})"
        )
    nodes = p // ppn
    entry = info("allreduce", leader_algorithm)
    if leader_k is None:
        leader_k = entry.default_k if entry.takes_k else None

    phases: List[Schedule] = []

    # Phase 1: each node's members reduce onto their leader (local rank 0).
    if ppn > 1:
        local_reduce = knomial_reduce(ppn, intra_k, root=0)
        node_programs = empty_programs(p)
        for node in range(nodes):
            members = list(range(node * ppn, (node + 1) * ppn))
            embedded = programs_of(
                reference_remap_ranks(local_reduce, members, p)
            )
            for r in members:
                node_programs[r] = embedded[r]
        phases.append(
            from_programs(
                collective="allreduce",  # phase typing; composed below
                algorithm="hierarchical",
                nranks=p,
                nblocks=1,
                programs=node_programs,
            )
        )

    # Phase 2: leaders run the internode allreduce.
    if nodes > 1:
        outer = build_schedule("allreduce", leader_algorithm, nodes, k=leader_k)
        if outer.nblocks != 1:
            raise ScheduleError(
                f"leader algorithm {leader_algorithm!r} partitions the "
                f"buffer (nblocks={outer.nblocks}); hierarchical "
                f"composition needs a whole-buffer allreduce"
            )
        leaders = [node * ppn for node in range(nodes)]
        phases.append(reference_remap_ranks(outer, leaders, p))

    # Phase 3: leaders broadcast the result within their nodes.
    if ppn > 1:
        local_bcast = knomial_bcast(ppn, intra_k, root=0)
        node_programs = empty_programs(p)
        for node in range(nodes):
            members = list(range(node * ppn, (node + 1) * ppn))
            embedded = programs_of(
                reference_remap_ranks(local_bcast, members, p)
            )
            for r in members:
                node_programs[r] = embedded[r]
        phases.append(
            from_programs(
                collective="allreduce",
                algorithm="hierarchical",
                nranks=p,
                nblocks=1,
                programs=node_programs,
            )
        )

    if not phases:  # p == 1
        return from_programs(
            collective="allreduce",
            algorithm="hierarchical",
            nranks=1,
            nblocks=1,
            programs=empty_programs(1),
        )
    return reference_compose(
        "allreduce",
        "hierarchical",
        phases,
        k=leader_k,
        meta={
            "ppn": ppn,
            "intra_k": intra_k,
            "leader_algorithm": leader_algorithm,
        },
    )


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

#: Every module whose builders call a composite, and the names it calls.
_CALLERS = {
    repro.core.knomial: ("compose",),
    repro.core.recursive: ("compose",),
    repro.core.ring: ("compose", "dualize_allgather"),
    repro.core.baselines: ("compose", "dualize_allgather"),
    repro.core.registry: ("dualize_allgather",),
}
_REFERENCE = {
    "compose": reference_compose,
    "dualize_allgather": reference_dualize_allgather,
}


@contextmanager
def op_object_composites():
    """Builders call the reference composites for the body's builds."""
    with pytest.MonkeyPatch.context() as patch:
        for module, names in _CALLERS.items():
            for name in names:
                patch.setattr(module, name, _REFERENCE[name])
        yield


def assert_same(got: Schedule, want: Schedule) -> None:
    """Equal labels, ``meta``, columns, signatures and fingerprint."""
    where = want.describe()
    assert (got.collective, got.algorithm, got.nranks, got.nblocks,
            got.root, got.k) == (want.collective, want.algorithm,
                                 want.nranks, want.nblocks, want.root,
                                 want.k), where
    assert got.meta == want.meta, where
    a, b = got.columns(), want.columns()
    for name in Columns._fields:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), (where, name)
    assert a.signatures == b.signatures, where
    assert got.fingerprint() == want.fingerprint(), where


def _check_grid():
    return sorted({(pt.collective, pt.algorithm, pt.p, pt.k)
                   for pt in grid_points()})


CHECK_GRID = _check_grid()
COMPOSITE_ENTRIES = sorted({(c, a) for c, a, _, _ in CHECK_GRID})


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------


def test_the_grid_is_the_check_sweeps():
    assert len(grid_points()) == 2394


@pytest.mark.parametrize(
    "collective, algorithm", COMPOSITE_ENTRIES,
    ids=[f"{c}/{a}" for c, a in COMPOSITE_ENTRIES],
)
def test_registry_grid_matches_the_op_object_reference(collective, algorithm):
    points = [(p, k) for c, a, p, k in CHECK_GRID
              if (c, a) == (collective, algorithm)]
    # One cache per side shares each side's phases between its builds.
    cache = ScheduleCache()
    built = [cache.get_or_build(collective, algorithm, p, k=k)[0]
             for p, k in points]
    cache = ScheduleCache()
    with op_object_composites():
        reference = [cache.get_or_build(collective, algorithm, p, k=k)[0]
                     for p, k in points]
    for got, want in zip(built, reference):
        assert_same(got, want)


HIERARCHICAL = [
    (p, ppn, leader)
    for p in (1, 2, 4, 6, 8, 12, 16)
    for ppn in range(1, p + 1) if p % ppn == 0
    for leader in ("recursive_doubling", "recursive_multiplying",
                   "knomial", "binomial")
]


@pytest.mark.parametrize("p, ppn, leader", HIERARCHICAL)
def test_hierarchical_matches_the_op_object_reference(p, ppn, leader):
    got = hierarchical_allreduce(p, ppn, leader_algorithm=leader)
    with op_object_composites():
        want = reference_hierarchical_allreduce(
            p, ppn, leader_algorithm=leader
        )
    assert_same(got, want)


@pytest.mark.parametrize("mapping, nranks", [
    ([3, 0, 5, 1], 7),  # out of order, idle ranks between
    ([0, 1, 2, 3], 4),  # identity
    ([6, 5, 4, 3], 8),  # reversed, idle ranks first
])
@pytest.mark.parametrize("collective, algorithm, k, root", [
    ("allreduce", "kring", 2, 0),
    ("allgather", "bruck", 3, 0),  # local copies
    ("bcast", "knomial", 3, 2),  # a root to carry over
    ("reduce_scatter", "recursive_multiplying", 2, 0),
])
def test_remap_matches_the_op_object_reference(
    mapping, nranks, collective, algorithm, k, root
):
    sched = build_schedule(collective, algorithm, 4, k=k, root=root)
    assert_same(remap_ranks(sched, mapping, nranks),
                reference_remap_ranks(sched, mapping, nranks))


def _refusal(fn, *args) -> str:
    with pytest.raises(ScheduleError) as caught:
        fn(*args)
    return str(caught.value)


def _allgather(nranks: int, nblocks: int, *programs) -> Schedule:
    """``(rank, [ops], [ops], …)`` per busy rank, one list per step."""
    progs = empty_programs(nranks)
    for rank, *steps in programs:
        for ops in steps:
            progs[rank].add(*ops)
    return from_programs("allgather", "t", nranks, nblocks, progs)


UNDUALIZABLE = [
    ("own block", _allgather(2, 2, (0, [RecvOp(1, (0,))]),
                             (1, [SendOp(0, (0,))]))),
    ("block twice", _allgather(
        3, 3, (0, [RecvOp(1, (1,))], [RecvOp(2, (2, 1))]),
        (1, [SendOp(0, (1,))]), (2, [SendOp(0, (2, 1))]))),
    ("twice on a later rank", _allgather(
        3, 3, (0, [SendOp(2, (0,))]),
        (1, [SendOp(2, (1,))], [SendOp(2, (1,))]),
        (2, [RecvOp(0, (0,)), RecvOp(1, (1,))], [RecvOp(1, (1,))]))),
    ("reducing receive", _allgather(
        2, 2, (0, [RecvOp(1, (1,), reduce=True)]), (1, [SendOp(0, (1,))]))),
    ("local copy", _allgather(1, 2, (0, [CopyOp(0, 1)]))),
    ("copy in the later step", _allgather(
        2, 2, (0, [RecvOp(1, (1,), reduce=True)], [CopyOp(0, 1)]),
        (1, [SendOp(0, (1,))]))),
    ("both in one step", _allgather(
        2, 2, (0, [CopyOp(0, 1), RecvOp(1, (1,), reduce=True)]),
        (1, [SendOp(0, (1,))]))),
    ("copy on the lower rank", _allgather(
        2, 2, (0, [CopyOp(0, 1)]),
        (1, [RecvOp(0, (0,), reduce=True)]), (0, [SendOp(1, (0,))]))),
    ("not an allgather", build_schedule("allreduce", "ring", 4)),
]


@pytest.mark.parametrize(
    "name, schedule", UNDUALIZABLE, ids=[n for n, _ in UNDUALIZABLE]
)
def test_dualize_refuses_like_the_reference(name, schedule):
    assert _refusal(dualize_allgather, schedule, "x") == _refusal(
        reference_dualize_allgather, schedule, "x"
    )


@pytest.mark.parametrize("mapping, nranks", [
    ([0, 1, 2], 8),  # too short
    ([0, 1, 1, 2], 8),  # not injective
    ([0, 1, 2, 8], 8),  # out of range
    ([0, -1, 2, 3], 8),  # negative
])
def test_remap_refuses_like_the_reference(mapping, nranks):
    sched = build_schedule("allreduce", "kring", 4, k=2)
    assert _refusal(remap_ranks, sched, mapping, nranks) == _refusal(
        reference_remap_ranks, sched, mapping, nranks
    )


def test_compose_refuses_mismatched_geometry_like_the_reference():
    phases = [build_schedule("allgather", "ring", 4),
              build_schedule("bcast", "binomial", 4)]
    assert _refusal(compose, "x", "y", phases) == _refusal(
        reference_compose, "x", "y", phases
    )
