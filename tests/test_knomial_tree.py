"""The k-nomial family's one tree against its op-object reference.

:func:`~repro.core.knomial.knomial_tree` is the tree of paper §III in
one NumPy pass; ``knomial_bcast`` and ``knomial_scatter`` expand it into
columns and ``knomial_reduce`` and ``knomial_gather`` are their
:func:`~repro.core.primitives.time_reversed` columns.  The scalar tree
helpers and the four per-rank loops below are the bodies they replaced,
kept verbatim as the oracle (like ``tests/test_column_transforms.py``
keeps the composites' op-object bodies).  Columns, payload signatures,
``fingerprint()``, ``meta`` and refusal texts must be equal over a
rank × radix × root grid, every registry entry that builds through the
family over the ``repro-check --all`` grid, and ``hierarchical_allreduce``
over its grid — and no family build may make an op object.
"""

import dataclasses
from contextlib import contextmanager
from typing import List, Optional, Tuple

import numpy as np
import pytest

import repro.core.baselines
import repro.core.hierarchical
import repro.core.knomial
import repro.core.recursive
import repro.core.registry as registry
import repro.core.ring
from repro.core.cache import ContentCache
from repro.core.hierarchical import hierarchical_allreduce
from repro.core.knomial import (
    knomial_allgather,
    knomial_allreduce,
    knomial_bcast,
    knomial_gather,
    knomial_reduce,
    knomial_scatter,
    knomial_tree,
)
from repro.core.primitives import (
    check_radix,
    check_root,
    sharing_phases,
)
from repro.core.render import render_knomial_tree
from repro.core.schedule import Schedule
from repro.errors import ScheduleError
from oracle import (
    Op,
    RankProgram,
    RecvOp,
    SendOp,
    Step,
    absolute_rank,
    all_blocks,
    empty_programs,
    from_programs,
    relative_rank,
)
from test_column_transforms import CHECK_GRID, HIERARCHICAL, assert_same

# ----------------------------------------------------------------------
# The reference: the scalar tree helpers and op-object bodies replaced
# ----------------------------------------------------------------------

def knomial_attach_mask(relr: int, p: int, k: int) -> int:
    """Mask at which relative rank ``relr`` attaches to its parent.

    For the root this is the smallest power of ``k`` that reaches ``p``
    (i.e. one level above every real child), which makes the children
    enumeration below uniform for root and non-root nodes.
    """
    check_radix(k)
    mask = 1
    while mask < p:
        if relr % (mask * k) != 0:
            return mask
        mask *= k
    return mask


def knomial_parent(relr: int, p: int, k: int) -> Optional[int]:
    """Relative parent of ``relr`` in the k-nomial tree, ``None`` for root.

    >>> [knomial_parent(r, 9, 3) for r in range(9)]
    [None, 0, 0, 0, 3, 3, 0, 6, 6]
    """
    if relr == 0:
        return None
    mask = knomial_attach_mask(relr, p, k)
    return relr - (relr % (mask * k))


def knomial_children(relr: int, p: int, k: int) -> List[Tuple[int, int]]:
    """Children of ``relr`` as ``(child_relrank, mask)``, largest mask first.

    Largest-mask-first is the bcast send order: the child that roots the
    deepest subtree gets its data earliest, minimizing the critical path —
    the same ordering MPICH's binomial broadcast uses.

    >>> knomial_children(0, 9, 3)
    [(3, 3), (6, 3), (1, 1), (2, 1)]
    """
    attach = knomial_attach_mask(relr, p, k)
    children = []
    mask = 1
    masks = []
    while mask < attach and mask < p:
        masks.append(mask)
        mask *= k
    for m in reversed(masks):
        for i in range(1, k):
            c = relr + i * m
            if c < p:
                children.append((c, m))
    return children


def knomial_subtree(relr: int, p: int, k: int) -> Tuple[int, int]:
    """Half-open relative-rank interval ``[relr, stop)`` of the subtree.

    A node attached at mask ``M`` owns the contiguous relative ranks
    ``[relr, relr + M)``, clipped to ``p`` — the interval its gather
    contribution covers and its scatter delivery must fill.

    >>> knomial_subtree(3, 9, 3)
    (3, 6)
    >>> knomial_subtree(0, 9, 3)
    (0, 9)
    """
    attach = knomial_attach_mask(relr, p, k)
    if relr == 0:
        # Root's interval covers everything; attach may overshoot p.
        while attach < p:
            attach *= k
        return 0, p
    return relr, min(relr + attach, p)


def _subtree_blocks(relr: int, p: int, k: int, root: int) -> Tuple[int, ...]:
    """Absolute block ids covered by ``relr``'s subtree (blocks are indexed
    by absolute rank for gather/scatter semantics)."""
    lo, hi = knomial_subtree(relr, p, k)
    return tuple(sorted(absolute_rank(x, root, p) for x in range(lo, hi)))


def reference_knomial_bcast(p: int, k: int, *, root: int = 0, nblocks: int = 1) -> Schedule:
    """K-nomial broadcast: cost model ``log_k(p)·α + (k-1)·n·log_k(p)·β``.

    ``nblocks`` lets composite algorithms broadcast an already-partitioned
    buffer (e.g. the bcast phase of a k-nomial allgather); every message
    still carries the whole buffer.
    """
    check_radix(k)
    check_root(root, p)
    payload = all_blocks(nblocks)
    programs = empty_programs(p)
    for rank in range(p):
        relr = relative_rank(rank, root, p)
        prog = programs[rank]
        parent = knomial_parent(relr, p, k)
        if parent is not None:
            prog.add(RecvOp(peer=absolute_rank(parent, root, p), blocks=payload))
        # One step per tree level, k-1 concurrent sends per step.
        level_ops: List[Op] = []
        current_mask: Optional[int] = None
        for child, mask in knomial_children(relr, p, k):
            if current_mask is not None and mask != current_mask:
                prog.add_step(level_ops)
                level_ops = []
            current_mask = mask
            level_ops.append(
                SendOp(peer=absolute_rank(child, root, p), blocks=payload)
            )
        prog.add_step(level_ops)
    return from_programs(
        collective="bcast",
        algorithm="knomial" if k != 2 else "binomial",
        nranks=p,
        nblocks=nblocks,
        programs=programs,
        root=root,
        k=k,
    )


def reference_knomial_reduce(p: int, k: int, *, root: int = 0, nblocks: int = 1) -> Schedule:
    """K-nomial reduction: children's partials stream up the tree.

    Each node absorbs its ``k - 1`` same-level children in one concurrent
    step (paying ``(k-1)(β + γ)n`` per level, model (3)), smallest mask
    first so near leaves unblock earliest, then forwards its partial to its
    parent.
    """
    check_radix(k)
    check_root(root, p)
    payload = all_blocks(nblocks)
    programs = empty_programs(p)
    for rank in range(p):
        relr = relative_rank(rank, root, p)
        prog = programs[rank]
        attach = knomial_attach_mask(relr, p, k)
        mask = 1
        while mask < attach and mask < p:
            ops: List[Op] = []
            for i in range(1, k):
                child = relr + i * mask
                if child < p:
                    ops.append(
                        RecvOp(
                            peer=absolute_rank(child, root, p),
                            blocks=payload,
                            reduce=True,
                        )
                    )
            prog.add_step(ops)
            mask *= k
        parent = knomial_parent(relr, p, k)
        if parent is not None:
            prog.add(SendOp(peer=absolute_rank(parent, root, p), blocks=payload))
    return from_programs(
        collective="reduce",
        algorithm="knomial" if k != 2 else "binomial",
        nranks=p,
        nblocks=nblocks,
        programs=programs,
        root=root,
        k=k,
    )


def reference_knomial_gather(p: int, k: int, *, root: int = 0) -> Schedule:
    """K-nomial gather (Fig. 1/2 of the paper): block ``b`` = rank ``b``'s data.

    Identical tree walk to :func:`reference_knomial_reduce`, but payloads are the
    children's whole subtree intervals instead of reduced partials, so the
    data volume grows toward the root: cost ``log_k(p)·α + n·(p-1)/p·β``.
    """
    check_radix(k)
    check_root(root, p)
    programs = empty_programs(p)
    for rank in range(p):
        relr = relative_rank(rank, root, p)
        prog = programs[rank]
        attach = knomial_attach_mask(relr, p, k)
        mask = 1
        while mask < attach and mask < p:
            ops: List[Op] = []
            for i in range(1, k):
                child = relr + i * mask
                if child < p:
                    ops.append(
                        RecvOp(
                            peer=absolute_rank(child, root, p),
                            blocks=_subtree_blocks(child, p, k, root),
                        )
                    )
            prog.add_step(ops)
            mask *= k
        parent = knomial_parent(relr, p, k)
        if parent is not None:
            prog.add(
                SendOp(
                    peer=absolute_rank(parent, root, p),
                    blocks=_subtree_blocks(relr, p, k, root),
                )
            )
    return from_programs(
        collective="gather",
        algorithm="knomial" if k != 2 else "binomial",
        nranks=p,
        nblocks=p,
        programs=programs,
        root=root,
        k=k,
    )


def reference_knomial_scatter(p: int, k: int, *, root: int = 0) -> Schedule:
    """K-nomial scatter: the exact reverse of :func:`reference_knomial_gather`.

    Used standalone and as the first phase of scatter-allgather broadcasts
    (classic MPICH "van de Geijn" bcast and our recursive-multiplying and
    k-ring bcasts).
    """
    check_radix(k)
    check_root(root, p)
    programs = empty_programs(p)
    for rank in range(p):
        relr = relative_rank(rank, root, p)
        prog = programs[rank]
        parent = knomial_parent(relr, p, k)
        if parent is not None:
            prog.add(
                RecvOp(
                    peer=absolute_rank(parent, root, p),
                    blocks=_subtree_blocks(relr, p, k, root),
                )
            )
        level_ops: List[Op] = []
        current_mask: Optional[int] = None
        for child, mask in knomial_children(relr, p, k):
            if current_mask is not None and mask != current_mask:
                prog.add_step(level_ops)
                level_ops = []
            current_mask = mask
            level_ops.append(
                SendOp(
                    peer=absolute_rank(child, root, p),
                    blocks=_subtree_blocks(child, p, k, root),
                )
            )
        prog.add_step(level_ops)
    return from_programs(
        collective="scatter",
        algorithm="knomial" if k != 2 else "binomial",
        nranks=p,
        nblocks=p,
        programs=programs,
        root=root,
        k=k,
    )


def reference_render_knomial_tree(p: int, k: int, *, root: int = 0) -> str:
    """Draw the k-nomial tree the way Figs. 1–2 do (root at top)."""
    if p < 1:
        raise ScheduleError(f"p must be >= 1, got {p}")
    lines: List[str] = [str(root)]

    def visit(relr: int, prefix: str) -> None:
        children = knomial_children(relr, p, k)
        for idx, (child, _) in enumerate(children):
            last = idx == len(children) - 1
            connector = "└── " if last else "├── "
            lines.append(prefix + connector + str((child + root) % p))
            visit(child, prefix + ("    " if last else "│   "))

    visit(0, "")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

_REFERENCE = {
    "knomial_bcast": reference_knomial_bcast,
    "knomial_reduce": reference_knomial_reduce,
    "knomial_gather": reference_knomial_gather,
    "knomial_scatter": reference_knomial_scatter,
}
#: Every module that calls a family builder, and the names it calls.
_CALLERS = {
    repro.core.knomial: tuple(_REFERENCE),
    repro.core.recursive: ("knomial_scatter",),
    repro.core.ring: ("knomial_scatter",),
    repro.core.baselines: ("knomial_scatter",),
    repro.core.hierarchical: ("knomial_bcast", "knomial_reduce"),
}
#: The registry entries that wrap a rooted family builder directly.
ROOTED = [(c, a) for c in ("bcast", "reduce", "gather", "scatter")
          for a in ("binomial", "knomial")]
#: Every registry entry whose build goes through the family.
FAMILY = ROOTED + [
    (c, a) for c in ("allgather", "allreduce") for a in ("binomial", "knomial")
]
THROUGH_FAMILY = FAMILY + [
    ("bcast", "kring"), ("bcast", "recursive_multiplying"),
    ("bcast", "recursive_doubling"), ("bcast", "ring"),
    ("bcast", "scatter_allgather"), ("reduce", "reduce_scatter_gather"),
]


@contextmanager
def op_object_tree():
    """Every family build runs the reference bodies for the body's builds."""
    with pytest.MonkeyPatch.context() as patch:
        for module, names in _CALLERS.items():
            for name in names:
                patch.setattr(module, name, _REFERENCE[name])
        for collective, algorithm in ROOTED:
            entry = registry.info(collective, algorithm)
            wrap = (registry._binomial if algorithm == "binomial"
                    else registry._knomial)
            patch.setitem(
                registry._REGISTRY, (collective, algorithm),
                dataclasses.replace(entry, builder=wrap(
                    _REFERENCE[f"knomial_{collective}"]
                )),
            )
        yield


#: Phase builders that never reach the family: both sides may share
#: what they build.
_FAMILY_FREE = (
    repro.core.ring.kring_allgather,
    repro.core.recursive.recursive_multiplying_allgather,
    repro.core.baselines.recursive_halving_reduce_scatter,
)


class _OutsideTheFamilyShared:
    """One side's phase cache: each side shares its phases between its
    builds, and both share the family-free ones."""

    def __init__(self, shared: ContentCache) -> None:
        self.shared, self.own = shared, ContentCache("phase", 1 << 12)

    def get_or_make(self, key, make):
        cache = self.shared if key[0] in _FAMILY_FREE else self.own
        return cache.get_or_make(key, make)


def _roots(p: int) -> List[int]:
    return sorted({0, 1 % p, p // 2, p - 1})


def assert_same_columns(got: Schedule, want: Schedule) -> None:
    """:func:`assert_same` without the fingerprint, a function of the
    labels and columns compared here (and compared itself on every
    schedule of the registry grid and of the smaller sizes)."""
    where = want.describe()
    assert (got.collective, got.algorithm, got.nranks, got.nblocks,
            got.root, got.k, got.meta) == (
        want.collective, want.algorithm, want.nranks, want.nblocks,
        want.root, want.k, want.meta), where
    for x, y in zip(got.columns()[:-1], want.columns()[:-1]):
        assert x.dtype == y.dtype and np.array_equal(x, y), where
    assert got.columns().signatures == want.columns().signatures, where


# ----------------------------------------------------------------------
# The tree
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p", range(1, 41))
def test_the_tree_is_the_scalar_helpers(p):
    for k in range(2, p + 2):
        attach, parent = knomial_tree(p, k)
        assert attach.tolist() == [
            knomial_attach_mask(r, p, k) for r in range(p)
        ]
        assert parent.tolist() == [
            -1 if r == 0 else knomial_parent(r, p, k) for r in range(p)
        ]


@pytest.mark.parametrize("p", range(1, 41))
def test_the_tree_is_drawn_from_the_schedule(p):
    for k in range(2, p + 2):
        for root in _roots(p):
            assert render_knomial_tree(p, k, root=root) == (
                reference_render_knomial_tree(p, k, root=root)
            )


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------

#: Ranks, each at roots {0, 1, p // 2, p − 1}: every radix 2 … p + 1 up
#: to p = 9, and past it the binomial tree, a multi-level radix, an
#: uneven two-level tree and the flat trees either side of k = p.  (The
#: whole radix range at every p here — 3 402 configs — matches too; the
#: reference's per-rank loops take ~15 s over it.)
GRID_P = list(range(1, 34)) + [64, 100, 128]


def _radices(p: int) -> List[int]:
    if p <= 9:
        return list(range(2, p + 2))
    return sorted({2, 3, p // 2, p - 1, p + 1})


@pytest.mark.parametrize("p", GRID_P)
def test_the_family_matches_the_op_object_reference(p):
    # One phase cache, so each reduce and gather reverses the bcast and
    # scatter built just before it, as a composite's build would.
    with sharing_phases(ContentCache("phase", 1 << 12)):
        for k in _radices(p):
            for root in _roots(p):
                for name, reference in _REFERENCE.items():
                    got = getattr(repro.core.knomial, name)(p, k, root=root)
                    want = reference(p, k, root=root)
                    if p <= 9:
                        assert_same(got, want)
                    else:
                        assert_same_columns(got, want)


@pytest.mark.parametrize("p", [1, 2, 5, 9, 16])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_whole_buffer_payloads_match(p, k):
    for nblocks in (1, 3):
        assert_same(knomial_bcast(p, k, root=p - 1, nblocks=nblocks),
                    reference_knomial_bcast(p, k, root=p - 1, nblocks=nblocks))
        assert_same(knomial_reduce(p, k, root=p - 1, nblocks=nblocks),
                    reference_knomial_reduce(p, k, root=p - 1,
                                             nblocks=nblocks))
    with op_object_tree():
        allgather, allreduce = knomial_allgather(p, k), knomial_allreduce(p, k)
    assert_same(knomial_allgather(p, k), allgather)
    assert_same(knomial_allreduce(p, k), allreduce)


@pytest.mark.parametrize(
    "collective, algorithm", THROUGH_FAMILY,
    ids=[f"{c}/{a}" for c, a in THROUGH_FAMILY],
)
def test_registry_grid_matches_the_op_object_reference(collective, algorithm):
    points = [(p, k) for c, a, p, k in CHECK_GRID
              if (c, a) == (collective, algorithm)]
    entry = registry.info(collective, algorithm)
    shared = ContentCache("phase", 1 << 12)
    with sharing_phases(_OutsideTheFamilyShared(shared)):
        built = [entry.build(p, k=k) for p, k in points]
    with op_object_tree(), sharing_phases(_OutsideTheFamilyShared(shared)):
        entry = registry.info(collective, algorithm)
        reference = [entry.build(p, k=k) for p, k in points]
    for got, want in zip(built, reference):
        assert_same(got, want)


def test_hierarchical_matches_the_op_object_reference():
    for p, ppn, leader in HIERARCHICAL:
        got = hierarchical_allreduce(p, ppn, leader_algorithm=leader)
        with op_object_tree():
            want = hierarchical_allreduce(p, ppn, leader_algorithm=leader)
        assert_same(got, want)


def _refusal(fn, *args, **kwargs) -> str:
    with pytest.raises(ScheduleError) as caught:
        fn(*args, **kwargs)
    return str(caught.value)


@pytest.mark.parametrize("p, k, root", [
    (8, 2, 8),  # root past the last rank
    (8, 2, -1),  # negative root
    (8, 1, 0),  # radix below 2
    (8, 2.0, 0),  # radix not an int
    (0, 2, 0),  # no ranks
    (-3, 3, 0),
])
def test_refusals_match_the_reference(p, k, root):
    for name, reference in _REFERENCE.items():
        builder = getattr(repro.core.knomial, name)
        assert _refusal(builder, p, k, root=root) == _refusal(
            reference, p, k, root=root
        ), name
    if root == 0:
        for builder in (knomial_allgather, knomial_allreduce):
            got = _refusal(builder, p, k)
            with op_object_tree():
                assert got == _refusal(builder, p, k)


def test_family_builds_make_no_op_object():
    def refuse(*args, **kwargs):
        raise AssertionError("a k-nomial family build made an op object")

    with pytest.MonkeyPatch.context() as patch:
        for cls in (SendOp, RecvOp, Step):
            patch.setattr(cls, "__post_init__", refuse)
        patch.setattr(RankProgram, "add_step", refuse)
        patch.setattr(RankProgram, "add", refuse)
        for p in (1, 2, 7, 16, 27):
            for collective, algorithm in FAMILY:
                entry = registry.info(collective, algorithm)
                for k in ((2, 3, p + 1) if entry.takes_k else (None,)):
                    roots = _roots(p) if entry.takes_root else [0]
                    for root in roots:
                        registry.build_schedule(collective, algorithm, p,
                                                k=k, root=root)
            for leader in ("knomial", "binomial"):
                hierarchical_allreduce(p, 1, leader_algorithm=leader)
                hierarchical_allreduce(p * 2, 2, leader_algorithm=leader)
            repro.core.baselines.knomial_gather_for_reduce(p, p - 1)
        with pytest.raises(AssertionError, match="op object"):
            reference_knomial_bcast(4, 2)
