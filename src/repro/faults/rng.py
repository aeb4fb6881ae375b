"""Counter-based random draws shared by the noise and fault models.

Both :class:`~repro.simnet.noise.NoiseModel` and
:class:`~repro.faults.plan.FaultPlan` need *random-access* randomness: the
simulator and the threaded transport consult them in nondeterministic
order (whichever rank gets scheduled first asks first), yet the answer for
a given (seed, counters) tuple must never depend on who asked when.  The
construction here hashes the counters into a fresh NumPy ``Generator`` per
draw — no shared stream, no ordering sensitivity, bit-identical across
processes and platforms.

For a single counter the mixing is kept exactly equal to the historical
``NoiseModel`` construction so existing seeded simulations reproduce the
same factor sequences.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["derive_rng", "uniform", "bernoulli"]

_KNUTH = 2654435761  # Knuth's multiplicative hash constant


def derive_rng(seed: int, *counters: int) -> np.random.Generator:
    """A fresh ``Generator`` keyed by ``(seed, *counters)``.

    Deterministic and order-free: two calls with equal arguments return
    generators producing identical streams, regardless of call order or
    thread.  Not cryptographic — just well-spread for simulation use.
    """
    # NumPy is imported here, not at the top: a FaultPlan is built
    # without it (``repro-adapt --help`` lists its drift scenarios).
    import numpy as np

    mix = seed << 32
    for i, c in enumerate(counters):
        mix ^= ((c * _KNUTH) % 2**31) << (31 * i)
    return np.random.default_rng(mix)


def uniform(seed: int, *counters: int) -> float:
    """One deterministic U[0, 1) draw keyed by ``(seed, *counters)``."""
    return float(derive_rng(seed, *counters).random())


def bernoulli(rate: float, seed: int, *counters: int) -> bool:
    """One deterministic coin flip with success probability ``rate``."""
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    return uniform(seed, *counters) < rate
