"""The MPICH-style selection-configuration artifact (§VI-G, as a file).

The paper's end deliverable is a *selection configuration*: a file an
MPI runtime consumes to pick the best generalized algorithm and radix
per ``(collective, p, nbytes)``.  :class:`~repro.selection.table
.SelectionTable` is the lookup mechanism; this module is the shippable
**artifact** around it — a versioned JSON document that additionally
carries the sweep timings the table was distilled from, which is what
makes it round-trippable:

* **back into the tuner as priors** — :meth:`SelectionConfig
  .sweep_priors` feeds :func:`repro.selection.tuner.tune`'s ``priors=``,
  so re-tuning over a covered grid replays recorded times instead of
  re-simulating and emits a bit-identical table (the tuning service's
  warm start);
* **into the online selector** — :meth:`SelectionConfig.priors_for`
  yields the ``{Choice: seconds}`` mapping
  :class:`repro.adapt.OnlineSelector` (and
  :func:`repro.adapt.run_adaptive`'s ``priors=``) warm-start from,
  replacing the healthy sweep an adaptive loop would otherwise run.

The document shape (see DESIGN.md §17 for a worked example)::

    {
      "format": "repro-selection-config",
      "version": 1,
      "machine": "reference-8", "nranks": 8,
      "sizes": [1024, 65536],
      "collectives": ["allreduce"],
      "table":   { ... SelectionTable.to_json payload ... },
      "timings": [ {"collective": ..., "algorithm": ..., "k": ...,
                    "root": 0, "nbytes": ..., "time": ...}, ... ]
    }

``version`` gates compatibility the way
:data:`repro.store.disk.FORMAT_VERSION` does for store entries: an
artifact from a different version refuses to load rather than silently
mis-tuning.  Times survive the JSON round trip exactly (shortest-repr
floats), so "bit-identical" below means literally identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import SelectionError
from ..selection.table import Choice, SelectionTable
from ..selection.tuner import (
    DEFAULT_COLLECTIVES,
    SweepResult,
    sweep_collective,
    table_from_sweeps,
)

__all__ = [
    "CONFIG_FORMAT",
    "CONFIG_VERSION",
    "SelectionConfig",
    "config_from_sweeps",
    "build_config",
]

#: The ``format`` discriminator every artifact carries.
CONFIG_FORMAT = "repro-selection-config"

#: Artifact schema version; bump on any incompatible document change
#: (old artifacts then refuse to load instead of silently mis-tuning).
CONFIG_VERSION = 1

#: The key :meth:`SelectionConfig.sweep_priors` maps from — the same
#: identity tuple :func:`repro.selection.tuner.sweep_collective` keys
#: its ``priors=`` lookups on.
PriorKey = Tuple[str, str, Optional[int], int, int]


@dataclass
class SelectionConfig:
    """One exported selection configuration: table + provenance timings.

    ``table`` answers queries (first-match-wins, exactly the in-process
    tuner's product); ``timings`` records every ``(choice, nbytes)``
    simulation the table was distilled from, which is what the two
    warm-start round trips consume.  ``machine``/``nranks``/``sizes``/
    ``collectives`` pin the grid the artifact describes.
    """

    table: SelectionTable
    machine: str
    nranks: int
    sizes: List[int]
    collectives: Tuple[str, ...]
    timings: List[Dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def select(self, collective: str, nranks: int, nbytes: int) -> Choice:
        """The tuned choice for a query point (delegates to the table)."""
        return self.table.select(collective, nranks, nbytes)

    def sweep_priors(self) -> Dict[PriorKey, float]:
        """Recorded timings keyed for the tuner's ``priors=``.

        Feeding this to :func:`repro.selection.tuner.tune` (or
        :func:`~repro.selection.tuner.sweep_collective`) makes every
        covered point replay its recorded time instead of re-simulating
        — winners are bit-identical because healthy simulation is
        deterministic, and only uncovered points (a widened grid, a new
        collective) cost simulator time.
        """
        return {
            (
                row["collective"], row["algorithm"], row["k"],
                row["root"], row["nbytes"],
            ): float(row["time"])
            for row in self.timings
        }

    def priors_for(self, collective: str, nbytes: int) -> Dict[Choice, float]:
        """The ``{Choice: seconds}`` warm start for one query point.

        Exactly the mapping :class:`repro.adapt.OnlineSelector` takes as
        its ``priors`` (and :func:`repro.adapt.run_adaptive` as
        ``priors=``): every candidate ``(algorithm, k)`` arm with its
        recorded healthy time at ``nbytes``.  Raises
        :class:`~repro.errors.SelectionError` when the artifact has no
        timings for the point — an empty warm start would silently
        degrade to uniform exploration.
        """
        priors = {
            Choice(row["algorithm"], row["k"]): float(row["time"])
            for row in self.timings
            if row["collective"] == collective and row["nbytes"] == nbytes
        }
        if not priors:
            raise SelectionError(
                f"selection config for {self.machine!r} has no timings "
                f"for {collective} at n={nbytes} "
                f"(recorded sizes: {self.sizes})"
            )
        return priors

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the versioned artifact document."""
        payload = {
            "format": CONFIG_FORMAT,
            "version": CONFIG_VERSION,
            "machine": self.machine,
            "nranks": self.nranks,
            "sizes": list(self.sizes),
            "collectives": list(self.collectives),
            "table": json.loads(self.table.to_json()),
            "timings": self.timings,
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SelectionConfig":
        """Parse :meth:`to_json` output, refusing foreign documents.

        A wrong ``format`` or ``version`` raises
        :class:`~repro.errors.SelectionError` — version skew must fail
        loudly, not replay timings recorded under different semantics.
        The embedded table revalidates every rule against the registry,
        exactly as :meth:`SelectionTable.from_json` does.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SelectionError(
                f"malformed selection-config JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict) or payload.get("format") != CONFIG_FORMAT:
            raise SelectionError(
                f"not a selection-config artifact (format="
                f"{payload.get('format')!r} if it is an object; expected "
                f"{CONFIG_FORMAT!r})"
            )
        if payload.get("version") != CONFIG_VERSION:
            raise SelectionError(
                f"selection-config version {payload.get('version')!r} is "
                f"incompatible with this build (expected {CONFIG_VERSION})"
            )
        timings = payload.get("timings", [])
        for row in timings:
            missing = {
                "collective", "algorithm", "k", "root", "nbytes", "time"
            } - set(row)
            if missing:
                raise SelectionError(
                    f"selection-config timing row is missing "
                    f"{sorted(missing)}: {row}"
                )
        return cls(
            table=SelectionTable.from_json(json.dumps(payload["table"])),
            machine=str(payload.get("machine", "unknown")),
            nranks=int(payload.get("nranks", 0)),
            sizes=[int(n) for n in payload.get("sizes", [])],
            collectives=tuple(payload.get("collectives", [])),
            timings=timings,
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the artifact to ``path`` (see :meth:`to_json`)."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SelectionConfig":
        """Read an artifact previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable summary (the CLI's and smoke driver's dump)."""
        return (
            f"selection config: machine={self.machine} p={self.nranks} "
            f"sizes={self.sizes} collectives={list(self.collectives)} "
            f"({len(self.timings)} recorded timings)\n"
            + self.table.describe()
        )


def config_from_sweeps(
    machine,
    sizes: Sequence[int],
    sweeps: Mapping[str, SweepResult],
    *,
    name: Optional[str] = None,
) -> SelectionConfig:
    """Assemble the artifact from already-run per-collective sweeps.

    The table comes from :func:`repro.selection.tuner.table_from_sweeps`
    — the same merge the one-shot tuner applies, so the artifact's table
    is bit-identical to ``tune()`` over the same sweeps.  Every sweep
    entry becomes one timing row.  This is the piece the tuning service
    calls after each ``/tune`` merge; :func:`build_config` wraps it for
    the one-shot offline path.
    """
    from ..simnet.machines import resolve as resolve_machine

    machine = resolve_machine(machine)
    sorted_sizes = sorted(set(int(s) for s in sizes))
    table = table_from_sweeps(
        sweeps, sorted_sizes, name=name or f"tuned-{machine.name}"
    )
    timings: List[Dict] = []
    for collective, sweep in sweeps.items():
        for entry in sweep.entries:
            timings.append({
                "collective": collective,
                "algorithm": entry.choice.algorithm,
                "k": entry.choice.k,
                "root": 0,
                "nbytes": entry.nbytes,
                "time": entry.time,
            })
    return SelectionConfig(
        table=table,
        machine=machine.name,
        nranks=machine.nranks,
        sizes=sorted_sizes,
        collectives=tuple(sweeps),
        timings=timings,
    )


def build_config(
    machine,
    sizes: Sequence[int],
    *,
    collectives: Sequence[str] = DEFAULT_COLLECTIVES,
    jobs: int = 0,
    check: bool = False,
    engine: str = "auto",
    priors: Optional[Mapping[PriorKey, float]] = None,
    name: Optional[str] = None,
) -> SelectionConfig:
    """Sweep and export in one step — ``tune()`` that keeps its receipts.

    Runs exactly the sweeps :func:`repro.selection.tuner.tune` would
    (same grid, same enumeration, same knobs — including ``priors`` for
    a warm start from a previous artifact) and returns the
    :class:`SelectionConfig` whose table is bit-identical to that
    ``tune()`` call and whose timings are the sweeps themselves.
    """
    from ..simnet.machines import resolve as resolve_machine

    machine = resolve_machine(machine)
    sorted_sizes = sorted(set(int(s) for s in sizes))
    if not sorted_sizes:
        raise SelectionError("build_config needs at least one message size")
    sweeps: Dict[str, SweepResult] = {}
    for collective in collectives:
        sweeps[collective] = sweep_collective(
            collective, machine, sorted_sizes,
            jobs=jobs, check=check, engine=engine,
            priors=priors,
        )
    return config_from_sweeps(machine, sorted_sizes, sweeps, name=name)
