"""Named drift scenarios for benchmarks, tests, and the CLI.

Each builder turns a rank count and a seed into an
:class:`AdaptScenario` — a bundled
:class:`~repro.faults.plan.PhasedFaultPlan` and/or
:class:`~repro.faults.plan.ContentionModel` with a recommended round
count — so the CLI (``repro-adapt --scenario flap``), the regret bench,
and the golden tests all exercise *the same* deterministic drift:

* ``flap`` — a busy link pair degrades hard mid-run, then heals: the
  canonical winner-changing event the convergence gate pins.
* ``migrate`` — a straggler appears on one rank, migrates to another,
  then heals: drift the link-telemetry channel cannot see, exercising
  the timing-only detection path.
* ``contention`` — two duty-cycled background jobs couple link costs on
  and off: sustained noisy pressure rather than a clean phase edge.
* ``calm`` — no drift at all: the no-switch/no-regret baseline the
  adaptive-off bit-identity gate runs against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..errors import AdaptError
from ..faults.plan import (
    BackgroundJob,
    ContentionModel,
    FaultPhase,
    FaultPlan,
    LinkFault,
    PhasedFaultPlan,
    Straggler,
)

__all__ = [
    "AdaptScenario",
    "SCENARIOS",
    "get_scenario",
    "flap_scenario",
    "migrate_scenario",
    "contention_scenario",
    "calm_scenario",
]


@dataclass(frozen=True)
class AdaptScenario:
    """A named, fully seeded drift scenario the adaptive loop runs under."""

    name: str
    description: str
    rounds: int
    phased: Optional[PhasedFaultPlan] = None
    contention: Optional[ContentionModel] = None

    def describe(self) -> str:
        """One-line summary: name, rounds, and the drift sources."""
        parts = [f"{self.name}: {self.description} ({self.rounds} rounds"]
        if self.phased is not None:
            parts.append(f"; {self.phased.describe()}")
        if self.contention is not None:
            parts.append(f"; {self.contention.describe()}")
        return "".join(parts) + ")"


def _require_ranks(name: str, nranks: int, minimum: int) -> None:
    """Scenario builders need enough ranks to place their faults on."""
    if nranks < minimum:
        raise AdaptError(
            f"scenario {name!r} needs >= {minimum} ranks, got {nranks}"
        )


def flap_scenario(nranks: int, *, seed: int = 0) -> AdaptScenario:
    """Rank 1's NIC flaps: every link touching it degrades at round 8
    (8x bandwidth, 4x latency) and heals at round 20.

    A failing NIC penalizes *all* of one rank's traffic, which reranks
    the families decisively: the butterfly winners (recursive
    multiplying/doubling) route every rank through log-p exchanges with
    the sick rank, while a k-nomial tree touches it on a single edge —
    so the post-change oracle winner differs from the healthy one and
    the convergence gate has a real switch to pin.
    """
    _require_ranks("flap", nranks, 2)
    links = []
    for r in range(nranks):
        if r == 1:
            continue
        links.append(
            LinkFault(src=1, dst=r, delay_factor=4.0, bandwidth_factor=8.0)
        )
        links.append(
            LinkFault(src=r, dst=1, delay_factor=4.0, bandwidth_factor=8.0)
        )
    degraded = FaultPlan(seed=seed, links=tuple(links))
    return AdaptScenario(
        name="flap",
        description=(
            "every link touching rank 1 degrades 8x at round 8, "
            "heals at round 20"
        ),
        rounds=28,
        phased=PhasedFaultPlan(
            (
                FaultPhase(8, degraded, label="flapping"),
                FaultPhase(20, None, label="healed"),
            )
        ),
    )


def migrate_scenario(nranks: int, *, seed: int = 0) -> AdaptScenario:
    """A straggler appears on rank 1, migrates to the middle rank at
    round 14, and heals at round 22 — compute-side drift invisible to
    link telemetry, so only the timing channel can catch it."""
    _require_ranks("migrate", nranks, 4)
    first = FaultPlan(
        seed=seed, stragglers=(Straggler(rank=1, factor=8.0),)
    )
    second = FaultPlan(
        seed=seed, stragglers=(Straggler(rank=nranks // 2, factor=8.0),)
    )
    return AdaptScenario(
        name="migrate",
        description=(
            f"8x straggler on rank 1 at round 6, migrates to rank "
            f"{nranks // 2} at round 14, heals at round 22"
        ),
        rounds=28,
        phased=PhasedFaultPlan(
            (
                FaultPhase(6, first, label="straggler@1"),
                FaultPhase(14, second, label=f"straggler@{nranks // 2}"),
                FaultPhase(22, None, label="healed"),
            )
        ),
    )


def contention_scenario(nranks: int, *, seed: int = 0) -> AdaptScenario:
    """Two duty-cycled background jobs share the fabric: one heavy job
    on the low ranks most of the time, one lighter job on the high
    ranks half the time — noisy sustained pressure, no clean edge."""
    _require_ranks("contention", nranks, 4)
    half = nranks // 2
    return AdaptScenario(
        name="contention",
        description="two duty-cycled neighbor jobs couple link costs",
        rounds=24,
        contention=ContentionModel(
            seed=seed,
            jobs=(
                BackgroundJob(
                    name="heavy-low",
                    ranks=tuple(range(0, half)),
                    intensity=4.0,
                    delay=1.0,
                    duty=0.75,
                ),
                BackgroundJob(
                    name="light-high",
                    ranks=tuple(range(half, nranks)),
                    intensity=1.5,
                    duty=0.5,
                ),
            ),
        ),
    )


def calm_scenario(nranks: int, *, seed: int = 0) -> AdaptScenario:
    """No drift: a healthy fabric end to end.  The adaptive loop must
    provably never switch here (``tests/test_adapt.py`` pins it)."""
    _require_ranks("calm", nranks, 2)
    return AdaptScenario(
        name="calm",
        description="healthy fabric, no drift",
        rounds=12,
    )


#: Scenario registry: name -> builder(nranks, *, seed).
SCENARIOS: Dict[str, Callable[..., AdaptScenario]] = {
    "flap": flap_scenario,
    "migrate": migrate_scenario,
    "contention": contention_scenario,
    "calm": calm_scenario,
}


def get_scenario(name: str, nranks: int, *, seed: int = 0) -> AdaptScenario:
    """Build the named scenario for a machine of ``nranks`` ranks."""
    if name not in SCENARIOS:
        raise AdaptError(
            f"unknown scenario {name!r}; have {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name](nranks, seed=seed)
