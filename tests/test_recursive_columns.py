"""The recursive multiplying family's columns against its op-object
reference.

:func:`~repro.core.recursive.recursive_multiplying_allreduce` and
:func:`~repro.core.recursive.recursive_multiplying_allgather` expand the
fold, the mixed-radix butterfly and the unfold into columns in one
NumPy pass; the bcast composes them with the k-nomial scatter and the
reduce-scatters are the allgather's dual.  The per-rank bodies and the
scalar helpers ``_fold_partners`` / ``_butterfly_groups`` they replaced
are kept below verbatim as the oracle (like ``tests/test_knomial_tree.py``
keeps the k-nomial loops).  Columns, payload signatures,
``fingerprint()``, ``meta`` and refusal texts must be equal over a rank
× radix grid, and every registry entry that builds through the family
over ranks × radices × roots — and no family build may make an op
object.
"""

import dataclasses
from contextlib import contextmanager
from typing import Dict, List, Tuple

import pytest

import repro.core.baselines
import repro.core.recursive
import repro.core.registry as registry
from repro.core.cache import ContentCache
from repro.core.hierarchical import hierarchical_allreduce
from repro.core.primitives import check_radix, sharing_phases
from repro.core.recursive import radix_schedule, smooth_core
from repro.core.schedule import Schedule
from repro.errors import ScheduleError
from oracle import (
    Op,
    RankProgram,
    RecvOp,
    SendOp,
    Step,
    empty_programs,
    from_programs,
)
from test_column_transforms import assert_same
from test_knomial_tree import assert_same_columns

# ----------------------------------------------------------------------
# The reference: the scalar helpers and op-object bodies replaced
# ----------------------------------------------------------------------


def _fold_partners(p: int, q: int) -> Dict[int, List[int]]:
    """Map each core rank to the folded ranks it absorbs.

    Folded rank ``r`` (``q <= r < p``) partners with core rank
    ``(r - q) % q``; a core rank can absorb several folded ranks when
    ``p - q > q``.
    """
    partners: Dict[int, List[int]] = {}
    for r in range(q, p):
        partners.setdefault((r - q) % q, []).append(r)
    return partners


def _butterfly_groups(rank: int, stride: int, radix: int) -> List[int]:
    """Partners of ``rank`` in a butterfly round: the other ``radix - 1``
    members of its group (ranks sharing all mixed-radix digits except the
    current one)."""
    digit = (rank // stride) % radix
    base = rank - digit * stride
    return [base + j * stride for j in range(radix) if j != digit]


def reference_recursive_multiplying_allreduce(p: int, k: int) -> Schedule:
    """Recursive multiplying allreduce (model (6):
    ``log_k(p)·(α + (β+γ)(k-1)n)``).

    Every round each core rank sends its running partial to its ``k - 1``
    group partners and reduce-receives theirs — all ``2(k-1)`` operations
    posted concurrently in one step.  Contribution sets across a group are
    disjoint by construction, so reductions never double-count (checked by
    the symbolic validator for every geometry the tests sweep).
    """
    check_radix(k)
    programs = empty_programs(p)
    q = smooth_core(p, k)
    folds = _fold_partners(p, q)
    payload = (0,)

    # Fold: remainder ranks contribute to their core partner.
    for core, folded in folds.items():
        programs[core].add_step(
            [RecvOp(peer=f, blocks=payload, reduce=True) for f in folded]
        )
        for f in folded:
            programs[f].add(SendOp(peer=core, blocks=payload))

    # Mixed-radix butterfly on the core.
    stride = 1
    for radix in radix_schedule(q, k):
        for rank in range(q):
            partners = _butterfly_groups(rank, stride, radix)
            ops: List[Op] = [SendOp(peer=t, blocks=payload) for t in partners]
            ops += [RecvOp(peer=t, blocks=payload, reduce=True) for t in partners]
            programs[rank].add_step(ops)
        stride *= radix

    # Unfold: core partners return the final result.
    for core, folded in folds.items():
        programs[core].add_step([SendOp(peer=f, blocks=payload) for f in folded])
        for f in folded:
            programs[f].add(RecvOp(peer=core, blocks=payload))

    return from_programs(
        collective="allreduce",
        algorithm="recursive_multiplying" if k != 2 else "recursive_doubling",
        nranks=p,
        nblocks=1,
        programs=programs,
        k=k,
        meta={"core": q, "folded": p - q, "radices": list(radix_schedule(q, k))},
    )


def reference_recursive_multiplying_allgather(p: int, k: int) -> Schedule:
    """Recursive multiplying allgather (model (6):
    ``α·log_k(p) + β·n·(p-1)/p``).

    Block sets multiply by the round radix each round; folded ranks park
    their block with a core partner up front and receive the complete
    buffer at the end (one extra α + βn on each side, the MPICH
    non-power-of-two trade).
    """
    check_radix(k)
    programs = empty_programs(p)
    q = smooth_core(p, k)
    folds = _fold_partners(p, q)

    # Fold: remainder ranks park their block with the core partner.
    for core, folded in folds.items():
        programs[core].add_step([RecvOp(peer=f, blocks=(f,)) for f in folded])
        for f in folded:
            programs[f].add(SendOp(peer=core, blocks=(f,)))

    # Track each core rank's accumulated block set through the butterfly so
    # receive ops can name exactly the blocks their partner holds.
    sets: List[Tuple[int, ...]] = [
        tuple(sorted([c] + folds.get(c, []))) for c in range(q)
    ]
    stride = 1
    for radix in radix_schedule(q, k):
        new_sets: List[Tuple[int, ...]] = list(sets)
        for rank in range(q):
            partners = _butterfly_groups(rank, stride, radix)
            ops: List[Op] = [SendOp(peer=t, blocks=sets[rank]) for t in partners]
            ops += [RecvOp(peer=t, blocks=sets[t]) for t in partners]
            programs[rank].add_step(ops)
            merged = set(sets[rank])
            for t in partners:
                merged.update(sets[t])
            new_sets[rank] = tuple(sorted(merged))
        sets = new_sets
        stride *= radix

    # Unfold: folded ranks receive the assembled buffer.  Each folded rank
    # kept its own block locally (sending is non-destructive), so the core
    # partner omits it — a small bandwidth saving, and essential for the
    # reduce-scatter dual: re-delivering a block the receiver contributed
    # would double-count that contribution under time reversal.
    every = tuple(range(p))
    for core, folded in folds.items():
        if sets[core] != every:
            raise ScheduleError(
                f"internal error: core rank {core} holds {sets[core]}"
            )
        programs[core].add_step(
            [
                SendOp(peer=f, blocks=tuple(b for b in every if b != f))
                for f in folded
            ]
        )
        for f in folded:
            programs[f].add(
                RecvOp(peer=core, blocks=tuple(b for b in every if b != f))
            )

    return from_programs(
        collective="allgather",
        algorithm="recursive_multiplying" if k != 2 else "recursive_doubling",
        nranks=p,
        nblocks=p,
        programs=programs,
        k=k,
        meta={"core": q, "folded": p - q, "radices": list(radix_schedule(q, k))},
    )


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

_REFERENCE = {
    "recursive_multiplying_allreduce":
        reference_recursive_multiplying_allreduce,
    "recursive_multiplying_allgather":
        reference_recursive_multiplying_allgather,
}
#: Every module that calls a family builder by name, and the names.
_CALLERS = {
    repro.core.recursive: tuple(_REFERENCE),
    repro.core.baselines: ("recursive_multiplying_allgather",),
}
#: The registry entries that wrap a family builder directly.
DIRECT = [("allgather", "recursive_multiplying"),
          ("allreduce", "recursive_multiplying")]
#: Every registry entry whose build goes through the family.
THROUGH_FAMILY = DIRECT + [
    ("allgather", "recursive_doubling"), ("allreduce", "recursive_doubling"),
    ("bcast", "recursive_doubling"), ("bcast", "recursive_multiplying"),
    ("reduce_scatter", "recursive_halving"),
    ("reduce_scatter", "recursive_multiplying"),
    ("allreduce", "reduce_scatter_allgather"),
    ("reduce", "reduce_scatter_gather"),
]


@contextmanager
def op_object_butterfly():
    """Every family build runs the reference bodies."""
    with pytest.MonkeyPatch.context() as patch:
        for module, names in _CALLERS.items():
            for name in names:
                patch.setattr(module, name, _REFERENCE[name])
        for collective, algorithm in DIRECT:
            entry = registry.info(collective, algorithm)
            patch.setitem(
                registry._REGISTRY, (collective, algorithm),
                dataclasses.replace(entry, builder=registry._knomial(
                    _REFERENCE[f"recursive_multiplying_{collective}"]
                )),
            )
        yield


#: Ranks: every radix 2 … p + 1 up to p = 33 for the two builders; past
#: it, the binomial butterfly, small mixed radices, and the flat
#: butterflies either side of k = p.  (The whole radix range at every p
#: here matches too; the reference's per-rank loops take ~40 s over it.)
GRID_P = list(range(1, 34)) + [64, 100, 128, 256]


def _radices(p: int) -> List[int]:
    if p <= 33:
        return list(range(2, p + 2))
    if p <= 64:
        return sorted({2, 3, 4, 5, 6, 7, p // 2, p - 1, p, p + 1})
    return sorted({2, 3, 5, p // 2, p - 1, p + 1})


def _roots(p: int) -> List[int]:
    return sorted({0, 1 % p, p // 2, p - 1})


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p", GRID_P)
def test_the_family_matches_the_op_object_reference(p):
    for k in _radices(p):
        for name, reference in _REFERENCE.items():
            got = getattr(repro.core.recursive, name)(p, k)
            want = reference(p, k)
            if p <= 64:
                assert_same(got, want)
            else:
                assert_same_columns(got, want)


#: Registry points: every radix up to p = 9, sampled past it, each
#: rooted entry at roots {0, 1, p // 2, p − 1}.
REGISTRY_P = list(range(1, 18)) + [24, 27, 32, 33, 64]


def _registry_points(collective: str, algorithm: str):
    entry = registry.info(collective, algorithm)
    for p in REGISTRY_P:
        ks = [None]
        if entry.takes_k:
            ks = (range(2, p + 2) if p <= 9
                  else sorted({2, 3, 4, p // 2, p - 1, p + 1}))
        for k in ks:
            for root in (_roots(p) if entry.takes_root else [0]):
                yield p, k, root


@pytest.mark.parametrize(
    "collective, algorithm", THROUGH_FAMILY,
    ids=[f"{c}/{a}" for c, a in THROUGH_FAMILY],
)
def test_registry_entries_match_the_op_object_reference(collective,
                                                        algorithm):
    points = list(_registry_points(collective, algorithm))
    entry = registry.info(collective, algorithm)
    # One phase cache per side, as a composite's build would share.
    with sharing_phases(ContentCache("phase", 1 << 12)):
        built = [entry.build(p, k=k, root=root) for p, k, root in points]
    with op_object_butterfly(), sharing_phases(ContentCache("phase", 1 << 12)):
        entry = registry.info(collective, algorithm)
        reference = [entry.build(p, k=k, root=root) for p, k, root in points]
    for got, want in zip(built, reference):
        assert_same(got, want)


def test_hierarchical_leaders_match_the_op_object_reference():
    for p, ppn in ((4, 1), (8, 2), (12, 3), (16, 4), (12, 2)):
        for leader in ("recursive_doubling", "recursive_multiplying"):
            got = hierarchical_allreduce(p, ppn, leader_algorithm=leader)
            with op_object_butterfly():
                want = hierarchical_allreduce(p, ppn,
                                              leader_algorithm=leader)
            assert_same(got, want)


def _refusal(fn, *args, **kwargs) -> str:
    with pytest.raises(ScheduleError) as caught:
        fn(*args, **kwargs)
    return str(caught.value)


@pytest.mark.parametrize("p, k", [
    (8, 1),  # radix below 2
    (8, 2.0),  # radix not an int
    (0, 2),  # no ranks
    (-3, 3),
])
def test_refusals_match_the_reference(p, k):
    for name, reference in _REFERENCE.items():
        builder = getattr(repro.core.recursive, name)
        assert _refusal(builder, p, k) == _refusal(reference, p, k), name
    got = _refusal(repro.core.recursive.recursive_multiplying_bcast, p, k)
    with op_object_butterfly():
        assert got == _refusal(
            repro.core.recursive.recursive_multiplying_bcast, p, k
        )


def test_family_builds_make_no_op_object():
    def refuse(*args, **kwargs):
        raise AssertionError("a recursive multiplying build made an op object")

    with pytest.MonkeyPatch.context() as patch:
        for cls in (SendOp, RecvOp, Step):
            patch.setattr(cls, "__post_init__", refuse)
        patch.setattr(RankProgram, "add_step", refuse)
        patch.setattr(RankProgram, "add", refuse)
        for p in (1, 2, 7, 12, 16, 27, 100):
            for collective, algorithm in THROUGH_FAMILY:
                entry = registry.info(collective, algorithm)
                for k in ((2, 3, p + 1) if entry.takes_k else (None,)):
                    roots = _roots(p) if entry.takes_root else [0]
                    for root in roots:
                        registry.build_schedule(collective, algorithm, p,
                                                k=k, root=root)
        with pytest.raises(AssertionError, match="op object"):
            reference_recursive_multiplying_allreduce(4, 2)
