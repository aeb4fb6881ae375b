"""Deterministic fault injection for both execution backends.

Declare *what goes wrong* once — a seeded :class:`FaultPlan` of message
drops, duplicates, delays, degraded links, stragglers, and rank crashes —
and hand the same object to the network simulator
(:func:`repro.simnet.simulate.simulate`) or the threaded transport
(:class:`repro.runtime.threaded.ThreadedTransport`).  Every decision is a
pure function of the seed, so runs are exactly reproducible.

The chaos harness lives in :mod:`repro.faults.chaos` (imported lazily to
keep this package free of backend dependencies).
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    "POLL_SLICE": ".channel",
    "ChannelAborted": ".channel",
    "ChannelBroken": ".channel",
    "ChannelFailure": ".channel",
    "ChannelMonitor": ".channel",
    "ChannelTimeout": ".channel",
    "LossyChannel": ".channel",
    "BackgroundJob": ".plan",
    "ContentionModel": ".plan",
    "Crash": ".plan",
    "FaultPhase": ".plan",
    "FaultPlan": ".plan",
    "LinkFault": ".plan",
    "PhasedFaultPlan": ".plan",
    "RetryPolicy": ".plan",
    "Straggler": ".plan",
    "combine_plans": ".plan",
    "derive_rng": ".rng",
})

__all__ = [
    "FaultPlan",
    "RetryPolicy",
    "LinkFault",
    "Straggler",
    "Crash",
    "FaultPhase",
    "PhasedFaultPlan",
    "BackgroundJob",
    "ContentionModel",
    "combine_plans",
    "LossyChannel",
    "ChannelMonitor",
    "ChannelFailure",
    "ChannelTimeout",
    "ChannelAborted",
    "ChannelBroken",
    "POLL_SLICE",
    "derive_rng",
]
