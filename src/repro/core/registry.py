"""Algorithm registry: names → schedule builders (paper Table I).

This is the single lookup point the executors, the simulator harness, the
selection layer, and the benchmarks use to construct schedules.  Each
entry normalizes the underlying builder to the uniform call signature
``build(p, k=..., root=...)`` and declares whether the algorithm is
*generalized* (exposes a tunable radix — the paper's contribution) or a
fixed baseline, and what its default radix is (the value at which it
coincides exactly with its classic counterpart, the property Fig. 7
relies on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ScheduleError
from . import alltoall, baselines, bruck, knomial, pipeline, recursive, ring
from .primitives import dualize_allgather, shared_phase
from .schedule import Schedule

__all__ = [
    "AlgorithmInfo",
    "COLLECTIVES",
    "ROOTED_COLLECTIVES",
    "GENERALIZED_ALGORITHMS",
    "TABLE1",
    "algorithms_for",
    "info",
    "build_schedule",
    "max_radix",
]

COLLECTIVES = (
    "bcast",
    "reduce",
    "gather",
    "scatter",
    "allgather",
    "allreduce",
    "reduce_scatter",
    "alltoall",
    "barrier",
)

ROOTED_COLLECTIVES = ("bcast", "reduce", "gather", "scatter")


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry metadata for one (collective, algorithm) entry."""

    collective: str
    name: str
    builder: Callable[..., Schedule]
    takes_k: bool = False
    takes_root: bool = False
    generalized: bool = False
    default_k: Optional[int] = None
    kernel: Optional[str] = None  # base communication kernel (Table I row)
    min_k: int = 2
    #: The name a built schedule reports instead of ``name`` where its
    #: builder relabels it: ``(alias, when)``, ``when(p, k)`` true at
    #: exactly those parameters (k-nomial at k = 2 reports ``binomial``,
    #: k-ring at k = 1 or k = p reports ``ring``).  Store keys carry the
    #: reported name; the tuning service inverts this to map them back
    #: to the entry that rebuilds the schedule.
    alias: Optional[Tuple[str, Callable[[int, int], bool]]] = None

    def build(self, p: int, *, k: Optional[int] = None, root: int = 0) -> Schedule:
        """Build a schedule, validating and defaulting parameters."""
        if p < 1:
            raise ScheduleError(f"p must be >= 1, got {p}")
        kwargs: Dict[str, object] = {}
        if self.takes_k:
            if k is None:
                k = self.default_k
            if k is None:
                raise ScheduleError(
                    f"{self.collective}/{self.name} requires a radix k"
                )
            kwargs["k"] = k
        elif k is not None:
            raise ScheduleError(
                f"{self.collective}/{self.name} does not take a radix "
                f"(got k={k})"
            )
        if self.takes_root:
            kwargs["root"] = root
        elif root != 0:
            raise ScheduleError(
                f"{self.collective}/{self.name} does not take a root "
                f"(got root={root})"
            )
        return self.builder(p, **kwargs)


def _recursive_multiplying_reduce_scatter(p: int, *, k: int) -> Schedule:
    """Dual of the recursive multiplying allgather — an extension beyond
    the paper's ten algorithms (its reduce-scatter counterpart), used by
    ablation benchmarks."""
    return dualize_allgather(
        shared_phase(recursive.recursive_multiplying_allgather, p, k),
        "recursive_multiplying" if k != 2 else "recursive_halving",
    )


def _binomial(fn: Callable[..., Schedule]) -> Callable[..., Schedule]:
    """Fix a k-nomial builder at radix 2 (the classic binomial baseline).

    Like :func:`_knomial`, through :func:`shared_phase`: the binomial
    entry *is* its generalized sibling at ``k = 2``, and many of these
    builders are also phases of composite entries — one build serves
    every entry that names the same ``fn(p, k, ...)``.
    """

    def build(p: int, **kwargs: object) -> Schedule:
        return shared_phase(fn, p, 2, **kwargs)

    return build


def _knomial(fn: Callable[..., Schedule]) -> Callable[..., Schedule]:
    """Adapt ``fn(p, k, ...)`` to the registry's keyword calling style."""

    def build(p: int, *, k: int, **kwargs: object) -> Schedule:
        return shared_phase(fn, p, k, **kwargs)

    return build


def _at(radix: int) -> Callable[[int, int], bool]:
    """An alias that applies at exactly one radix."""
    return lambda p, k: k == radix


_BINOMIAL = ("binomial", _at(2))
_RECURSIVE_DOUBLING = ("recursive_doubling", _at(2))
_RING = ("ring", lambda p, k: not 1 < k < p)
_BRUCK_KPORT = ("bruck_kport", lambda p, k: k != 2)

_REGISTRY: Dict[Tuple[str, str], AlgorithmInfo] = {}


def _register(entry: AlgorithmInfo) -> None:
    key = (entry.collective, entry.name)
    if key in _REGISTRY:
        raise ScheduleError(f"duplicate registry entry {key}")
    _REGISTRY[key] = entry


# --- bcast -------------------------------------------------------------
_register(AlgorithmInfo("bcast", "linear", baselines.linear_bcast,
                        takes_root=True, kernel="linear"))
_register(AlgorithmInfo("bcast", "binomial", _binomial(knomial.knomial_bcast),
                        takes_root=True, kernel="binomial"))
_register(AlgorithmInfo("bcast", "knomial", _knomial(knomial.knomial_bcast),
                        takes_k=True, takes_root=True, generalized=True,
                        default_k=2, kernel="binomial", alias=_BINOMIAL))
_register(AlgorithmInfo("bcast", "recursive_doubling",
                        recursive.recursive_doubling_bcast, takes_root=True,
                        kernel="recursive_doubling"))
_register(AlgorithmInfo("bcast", "recursive_multiplying",
                        _knomial(recursive.recursive_multiplying_bcast),
                        takes_k=True, takes_root=True, generalized=True,
                        default_k=2, kernel="recursive_doubling",
                        alias=_RECURSIVE_DOUBLING))
_register(AlgorithmInfo("bcast", "scatter_allgather",
                        baselines.scatter_allgather_bcast, takes_root=True,
                        kernel="ring"))
_register(AlgorithmInfo("bcast", "ring", ring.ring_bcast, takes_root=True,
                        kernel="ring"))
_register(AlgorithmInfo("bcast", "kring", _knomial(ring.kring_bcast),
                        takes_k=True, takes_root=True, generalized=True,
                        default_k=1, kernel="ring", min_k=1, alias=_RING))
# Extension beyond Table I: the segmented chain pipeline; its "radix" is
# the segment count (see repro.core.pipeline).
_register(AlgorithmInfo("bcast", "pipelined_chain",
                        lambda p, *, k, root=0:
                        pipeline.chain_bcast(p, k, root=root),
                        takes_k=True, takes_root=True, default_k=1,
                        kernel="chain", min_k=1, alias=("chain", _at(1))))

# --- reduce ------------------------------------------------------------
_register(AlgorithmInfo("reduce", "linear", baselines.linear_reduce,
                        takes_root=True, kernel="linear"))
_register(AlgorithmInfo("reduce", "binomial",
                        _binomial(knomial.knomial_reduce), takes_root=True,
                        kernel="binomial"))
_register(AlgorithmInfo("reduce", "knomial", _knomial(knomial.knomial_reduce),
                        takes_k=True, takes_root=True, generalized=True,
                        default_k=2, kernel="binomial", alias=_BINOMIAL))
_register(AlgorithmInfo("reduce", "reduce_scatter_gather",
                        baselines.reduce_scatter_gather_reduce,
                        takes_root=True, kernel="recursive_doubling"))

# --- gather / scatter ---------------------------------------------------
_register(AlgorithmInfo("gather", "linear", baselines.linear_gather,
                        takes_root=True, kernel="linear"))
_register(AlgorithmInfo("gather", "binomial",
                        _binomial(knomial.knomial_gather), takes_root=True,
                        kernel="binomial"))
_register(AlgorithmInfo("gather", "knomial", _knomial(knomial.knomial_gather),
                        takes_k=True, takes_root=True, generalized=True,
                        default_k=2, kernel="binomial", alias=_BINOMIAL))
_register(AlgorithmInfo("scatter", "linear", baselines.linear_scatter,
                        takes_root=True, kernel="linear"))
_register(AlgorithmInfo("scatter", "binomial",
                        _binomial(knomial.knomial_scatter), takes_root=True,
                        kernel="binomial"))
_register(AlgorithmInfo("scatter", "knomial",
                        _knomial(knomial.knomial_scatter), takes_k=True,
                        takes_root=True, generalized=True, default_k=2,
                        kernel="binomial", alias=_BINOMIAL))

# --- allgather ----------------------------------------------------------
_register(AlgorithmInfo("allgather", "binomial",
                        _binomial(knomial.knomial_allgather),
                        kernel="binomial"))
_register(AlgorithmInfo("allgather", "knomial",
                        _knomial(knomial.knomial_allgather), takes_k=True,
                        generalized=True, default_k=2, kernel="binomial",
                        alias=_BINOMIAL))
_register(AlgorithmInfo("allgather", "recursive_doubling",
                        recursive.recursive_doubling_allgather,
                        kernel="recursive_doubling"))
_register(AlgorithmInfo("allgather", "recursive_multiplying",
                        _knomial(recursive.recursive_multiplying_allgather),
                        takes_k=True, generalized=True, default_k=2,
                        kernel="recursive_doubling",
                        alias=_RECURSIVE_DOUBLING))
_register(AlgorithmInfo("allgather", "ring", ring.ring_allgather,
                        kernel="ring"))
_register(AlgorithmInfo("allgather", "kring", _knomial(ring.kring_allgather),
                        takes_k=True, generalized=True, default_k=1,
                        kernel="ring", min_k=1, alias=_RING))
# Extension beyond Table I: the rotation-based Bruck exchange, generalized
# over its port count — handles any p with no fold/unfold (see
# repro.core.bruck).
_register(AlgorithmInfo("allgather", "bruck", _knomial(bruck.bruck_allgather),
                        takes_k=True, default_k=2, kernel="bruck",
                        alias=_BRUCK_KPORT))

# --- allreduce ----------------------------------------------------------
_register(AlgorithmInfo("allreduce", "binomial",
                        _binomial(knomial.knomial_allreduce),
                        kernel="binomial"))
_register(AlgorithmInfo("allreduce", "knomial",
                        _knomial(knomial.knomial_allreduce), takes_k=True,
                        generalized=True, default_k=2, kernel="binomial",
                        alias=_BINOMIAL))
_register(AlgorithmInfo("allreduce", "recursive_doubling",
                        recursive.recursive_doubling_allreduce,
                        kernel="recursive_doubling"))
_register(AlgorithmInfo("allreduce", "recursive_multiplying",
                        _knomial(recursive.recursive_multiplying_allreduce),
                        takes_k=True, generalized=True, default_k=2,
                        kernel="recursive_doubling",
                        alias=_RECURSIVE_DOUBLING))
_register(AlgorithmInfo("allreduce", "ring", ring.ring_allreduce,
                        kernel="ring"))
_register(AlgorithmInfo("allreduce", "kring", _knomial(ring.kring_allreduce),
                        takes_k=True, generalized=True, default_k=1,
                        kernel="ring", min_k=1, alias=_RING))
_register(AlgorithmInfo("allreduce", "reduce_scatter_allgather",
                        baselines.reduce_scatter_allgather_allreduce,
                        kernel="recursive_doubling"))

# --- reduce_scatter -----------------------------------------------------
_register(AlgorithmInfo("reduce_scatter", "recursive_halving",
                        baselines.recursive_halving_reduce_scatter,
                        kernel="recursive_doubling"))
_register(AlgorithmInfo("reduce_scatter", "recursive_multiplying",
                        _recursive_multiplying_reduce_scatter, takes_k=True,
                        generalized=True, default_k=2,
                        kernel="recursive_doubling",
                        alias=("recursive_halving", _at(2))))
_register(AlgorithmInfo("reduce_scatter", "ring", ring.ring_reduce_scatter,
                        kernel="ring"))
_register(AlgorithmInfo("reduce_scatter", "kring",
                        _knomial(ring.kring_reduce_scatter), takes_k=True,
                        generalized=True, default_k=1, kernel="ring", min_k=1,
                        alias=_RING))

# --- alltoall (extension: the Fan et al. [12] generalized-Bruck lineage) -
_register(AlgorithmInfo("alltoall", "pairwise", alltoall.pairwise_alltoall,
                        kernel="pairwise"))
_register(AlgorithmInfo("alltoall", "bruck",
                        lambda p, *, k: alltoall.bruck_alltoall(p, k),
                        takes_k=True, default_k=2, kernel="bruck",
                        alias=_BRUCK_KPORT))

# --- barrier (extension: Hoefler's n-way dissemination, cited as [19]) --
_register(AlgorithmInfo("barrier", "dissemination",
                        lambda p: bruck.dissemination_barrier(p, 2),
                        kernel="dissemination"))
_register(AlgorithmInfo("barrier", "k_dissemination",
                        _knomial(bruck.dissemination_barrier), takes_k=True,
                        default_k=2, kernel="dissemination",
                        alias=("dissemination", _at(2))))


#: Paper Table I — the ten generalized implementations.
GENERALIZED_ALGORITHMS: Tuple[Tuple[str, str], ...] = (
    ("bcast", "knomial"),
    ("reduce", "knomial"),
    ("allgather", "knomial"),
    ("allreduce", "knomial"),
    ("bcast", "recursive_multiplying"),
    ("allgather", "recursive_multiplying"),
    ("allreduce", "recursive_multiplying"),
    ("bcast", "kring"),
    ("allgather", "kring"),
    ("allreduce", "kring"),
)

#: Paper Table I in row form: base kernel → (generalized kernel, collectives).
TABLE1: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "binomial": ("knomial", ("reduce", "bcast", "allgather", "allreduce")),
    "recursive_doubling": (
        "recursive_multiplying",
        ("bcast", "allgather", "allreduce"),
    ),
    "ring": ("kring", ("bcast", "allgather", "allreduce")),
}


def algorithms_for(collective: str) -> List[str]:
    """Algorithm names registered for a collective, sorted."""
    if collective not in COLLECTIVES:
        raise ScheduleError(f"unknown collective {collective!r}")
    return sorted(n for (c, n) in _REGISTRY if c == collective)


def info(collective: str, algorithm: str) -> AlgorithmInfo:
    """Registry entry lookup; raises :class:`ScheduleError` if absent."""
    try:
        return _REGISTRY[(collective, algorithm)]
    except KeyError:
        known = ", ".join(algorithms_for(collective)) if collective in COLLECTIVES else ""
        raise ScheduleError(
            f"no algorithm {algorithm!r} for collective {collective!r}"
            + (f" (known: {known})" if known else "")
        ) from None


def build_schedule(
    collective: str,
    algorithm: str,
    p: int,
    *,
    k: Optional[int] = None,
    root: int = 0,
) -> Schedule:
    """Uniform front door: build any registered schedule.

    >>> s = build_schedule("allreduce", "recursive_multiplying", 16, k=4)
    >>> s.describe()
    'allreduce recursive_multiplying p=16 k=4'
    """
    return info(collective, algorithm).build(p, k=k, root=root)


def max_radix(collective: str, algorithm: str, p: int) -> int:
    """Largest radix worth sweeping for an algorithm at ``p`` ranks.

    Tree and butterfly radices saturate at ``p`` (a radix-p tree is flat);
    k-ring group sizes saturate at ``p`` (one group = classic ring).
    """
    entry = info(collective, algorithm)
    if not entry.takes_k:
        raise ScheduleError(f"{collective}/{algorithm} has no radix")
    return max(p, entry.min_k)
