"""Reduction operators for the data executors.

Mirrors the MPI predefined operations the paper's collectives reduce with.
Each operator knows how to combine NumPy arrays (vectorized, in place into
the accumulator, per the HPC guide's "in-place beats reallocation" rule)
and exposes the algebraic properties the validator cares about:
commutativity (all MPI predefined ops commute) and idempotence (MAX/MIN/
BAND/BOR tolerate double-counted contributions; SUM/PROD/BXOR do not —
which is why the symbolic validator rejects overlapping contribution sets
unconditionally: a schedule must be correct for *every* operator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from ..errors import ExecutionError

__all__ = [
    "ReduceOp",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "BAND",
    "BOR",
    "BXOR",
    "LAND",
    "LOR",
    "ALL_OPS",
    "by_name",
]


@dataclass(frozen=True)
class ReduceOp:
    """An elementwise, associative, commutative reduction operator.

    Attributes
    ----------
    name:
        MPI-style name (``"sum"``, ``"max"``, ...).
    fn:
        ``fn(acc, incoming)`` combining two arrays elementwise.
        :meth:`apply` calls a NumPy ufunc in place, as
        ``fn(acc, incoming, out=acc, casting="unsafe")`` (no temporary;
        the unsafe cast is the one ``acc[...] = fn(acc, incoming)`` would
        make for mixed dtypes), and any other callable as
        ``acc[...] = fn(acc, incoming)``.
    idempotent:
        True if ``fn(x, x) == x`` — double-counting is harmless.
    integer_only:
        True for bitwise ops that are undefined on floats.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    idempotent: bool = False
    integer_only: bool = False

    def apply(self, acc: np.ndarray, incoming: np.ndarray) -> None:
        """Combine ``incoming`` into ``acc`` in place: a ufunc writes
        straight into ``acc``'s buffer, like MPI's local reduction into
        the receive buffer."""
        if acc.shape != incoming.shape:
            raise ExecutionError(
                f"reduce {self.name}: shape mismatch {acc.shape} vs "
                f"{incoming.shape}"
            )
        if self.integer_only and not np.issubdtype(acc.dtype, np.integer):
            raise ExecutionError(
                f"reduce {self.name} is only defined on integer dtypes, "
                f"got {acc.dtype}"
            )
        if isinstance(self.fn, np.ufunc):
            self.fn(acc, incoming, out=acc, casting="unsafe")
        else:
            acc[...] = self.fn(acc, incoming)

    def reduce_all(self, contributions: Tuple[np.ndarray, ...]) -> np.ndarray:
        """Reference reduction over a tuple of arrays, in rank order.

        Used to produce expected results for correctness checks; applies
        left to right so floating-point rounding matches a deterministic
        sequential fold.
        """
        if not contributions:
            raise ExecutionError(f"reduce {self.name}: nothing to reduce")
        acc = contributions[0].copy()
        for arr in contributions[1:]:
            self.apply(acc, arr)
        return acc


SUM = ReduceOp("sum", np.add)
PROD = ReduceOp("prod", np.multiply)
MAX = ReduceOp("max", np.maximum, idempotent=True)
MIN = ReduceOp("min", np.minimum, idempotent=True)
BAND = ReduceOp("band", np.bitwise_and, idempotent=True, integer_only=True)
BOR = ReduceOp("bor", np.bitwise_or, idempotent=True, integer_only=True)
BXOR = ReduceOp("bxor", np.bitwise_xor, integer_only=True)
LAND = ReduceOp("land", np.logical_and, idempotent=True)
LOR = ReduceOp("lor", np.logical_or, idempotent=True)

ALL_OPS: Tuple[ReduceOp, ...] = (SUM, PROD, MAX, MIN, BAND, BOR, BXOR, LAND, LOR)

_BY_NAME: Dict[str, ReduceOp] = {op.name: op for op in ALL_OPS}


def by_name(name: str) -> ReduceOp:
    """Look an operator up by its MPI-style name.

    >>> by_name("sum").name
    'sum'
    """
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ExecutionError(
            f"unknown reduce op {name!r}; known: {sorted(_BY_NAME)}"
        ) from None
