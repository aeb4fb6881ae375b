"""Algorithm selection — the MPICH tuning-file mechanism (§VI-G).

MPICH picks collective algorithms from a JSON selection configuration
keyed on communicator size and message size; the paper ships a new
configuration that routes exascale-relevant cases to the generalized
algorithms with tuned radices.  This module is that mechanism and that
file:

* :class:`SelectionTable` — an ordered rule list, first match wins,
  every rule validated against the algorithm registry when it is built;
* :class:`SelectionConfig` — the one selection-config document
  (``repro-tune`` writes it, ``repro-serve --grid`` and ``/config``
  read it): the table plus the sweep timings it was distilled from, and
  the only JSON codec for either.

The document shape (see DESIGN.md §17 for a worked example)::

    {
      "format": "repro-selection-config",
      "version": 1,
      "machine": "reference-8", "nranks": 8,
      "sizes": [1024, 65536],
      "collectives": ["allreduce"],
      "table":   {"name": ..., "rules": [{"collective": ...,
                  "algorithm": ..., "k": ..., "min_ranks": ...,
                  "max_ranks": ..., "min_bytes": ..., "max_bytes": ...}],
                  "fallback": {collective: {"algorithm": ..., "k": ...}}},
      "timings": [ {"collective": ..., "algorithm": ..., "k": ...,
                    "root": 0, "nbytes": ..., "time": ...}, ... ]
    }

``version`` gates compatibility the way
:data:`repro.store.disk.FORMAT_VERSION` does for store entries: a
document from a different version refuses to load rather than silently
mis-tuning.  Times survive the JSON round trip exactly (shortest-repr
floats), so "bit-identical" means literally identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.registry import COLLECTIVES, info
from ..errors import ScheduleError, SelectionError

__all__ = [
    "Rule",
    "Choice",
    "SelectionTable",
    "SelectionConfig",
    "CONFIG_FORMAT",
    "CONFIG_VERSION",
]

#: The ``format`` discriminator every document carries.
CONFIG_FORMAT = "repro-selection-config"

#: Document schema version; bump on any incompatible change (old
#: documents then refuse to load instead of silently mis-tuning).
CONFIG_VERSION = 1

#: The key :meth:`SelectionConfig.sweep_priors` maps from — the same
#: identity tuple :func:`repro.selection.tuner.sweep_collective` keys
#: its ``priors=`` lookups on.
PriorKey = Tuple[str, str, Optional[int], int, int]


@dataclass(frozen=True)
class Choice:
    """An algorithm plus (optionally) its radix."""

    algorithm: str
    k: Optional[int] = None

    def describe(self) -> str:
        return self.algorithm if self.k is None else f"{self.algorithm}(k={self.k})"


def _check_choice(collective: str, choice: Choice) -> None:
    """Validate a choice against the registry eagerly: a typo in a
    tuning file should fail at load, not at the first collective."""
    if collective not in COLLECTIVES:
        raise SelectionError(f"unknown collective {collective!r}")
    try:
        entry = info(collective, choice.algorithm)
    except ScheduleError as exc:
        raise SelectionError(str(exc)) from exc
    if choice.k is not None and not entry.takes_k:
        raise SelectionError(f"{collective}/{choice.algorithm} takes no radix")


@dataclass(frozen=True)
class Rule:
    """One selection rule: a (collective, ranks, bytes) region → a Choice.

    Ranges are half-open on the right with ``None`` meaning unbounded:
    ``min_bytes=0, max_bytes=65536`` covers messages strictly under 64 KiB.
    """

    collective: str
    choice: Choice
    min_ranks: int = 1
    max_ranks: Optional[int] = None
    min_bytes: int = 0
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        _check_choice(self.collective, self.choice)
        if self.min_ranks < 1:
            raise SelectionError("min_ranks must be >= 1")
        if self.max_ranks is not None and self.max_ranks <= self.min_ranks:
            raise SelectionError(
                f"empty rank range [{self.min_ranks}, {self.max_ranks})"
            )
        if self.min_bytes < 0:
            raise SelectionError("min_bytes must be >= 0")
        if self.max_bytes is not None and self.max_bytes <= self.min_bytes:
            raise SelectionError(
                f"empty byte range [{self.min_bytes}, {self.max_bytes})"
            )

    def matches(self, nranks: int, nbytes: int) -> bool:
        if nranks < self.min_ranks:
            return False
        if self.max_ranks is not None and nranks >= self.max_ranks:
            return False
        if nbytes < self.min_bytes:
            return False
        if self.max_bytes is not None and nbytes >= self.max_bytes:
            return False
        return True


@dataclass
class SelectionTable:
    """An ordered, first-match-wins list of selection rules.

    ``fallback`` supplies per-collective defaults when no rule matches
    (mirroring MPICH's built-in defaults under a partial tuning file).
    A table has no file format of its own: it is written and read as the
    ``"table"`` member of a :class:`SelectionConfig`.
    """

    rules: List[Rule] = field(default_factory=list)
    fallback: Dict[str, Choice] = field(default_factory=dict)
    name: str = "unnamed"

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def select(self, collective: str, nranks: int, nbytes: int) -> Choice:
        """The algorithm this table picks for a configuration."""
        if collective not in COLLECTIVES:
            raise SelectionError(f"unknown collective {collective!r}")
        for rule in self.rules:
            if rule.collective == collective and rule.matches(nranks, nbytes):
                return rule.choice
        if collective in self.fallback:
            return self.fallback[collective]
        raise SelectionError(
            f"table {self.name!r} has no rule for {collective} at "
            f"p={nranks}, n={nbytes} and no fallback"
        )

    def add(self, rule: Rule) -> "SelectionTable":
        """Append a rule (builder style)."""
        self.rules.append(rule)
        return self

    def coverage_errors(
        self,
        collective: str,
        nranks: int,
        sizes: Sequence[int],
    ) -> List[int]:
        """Sizes in ``sizes`` this table cannot select for (should be
        empty for a production table)."""
        missing = []
        for n in sizes:
            try:
                self.select(collective, nranks, n)
            except SelectionError:
                missing.append(n)
        return missing

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable dump (for reports and the CLI)."""
        lines = [f"selection table {self.name!r}: {len(self.rules)} rules"]
        for r in self.rules:
            hi_r = "inf" if r.max_ranks is None else str(r.max_ranks)
            hi_b = "inf" if r.max_bytes is None else str(r.max_bytes)
            lines.append(
                f"  {r.collective:14s} p∈[{r.min_ranks},{hi_r}) "
                f"n∈[{r.min_bytes},{hi_b}) → {r.choice.describe()}"
            )
        for coll, c in sorted(self.fallback.items()):
            lines.append(f"  {coll:14s} fallback → {c.describe()}")
        return "\n".join(lines)


@dataclass
class SelectionConfig:
    """One selection-config document: table + provenance timings.

    ``table`` answers queries (first-match-wins, exactly the tuner's
    product); ``timings`` records every ``(choice, nbytes)`` simulation
    the table was distilled from, which is what makes the document
    round-trip:

    * **back into the tuner as priors** — :meth:`sweep_priors` feeds
      :func:`repro.selection.tuner.tune`'s ``priors=``, so re-tuning
      over a covered grid replays recorded times instead of
      re-simulating and emits a bit-identical document (the tuning
      service's warm start, ``repro-serve --grid``);
    * **into the online selector** — :meth:`priors_for` yields the
      ``{Choice: seconds}`` mapping :class:`repro.adapt.OnlineSelector`
      (and :func:`repro.adapt.run_adaptive`'s ``priors=``) warm-start
      from, replacing the healthy sweep an adaptive loop would run.

    ``machine``/``nranks``/``sizes``/``collectives`` pin the grid the
    document describes.
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
        :class:`~repro.errors.SelectionError` when the document has no
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
    # The codec
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the versioned document."""
        table = self.table
        payload = {
            "format": CONFIG_FORMAT,
            "version": CONFIG_VERSION,
            "machine": self.machine,
            "nranks": self.nranks,
            "sizes": list(self.sizes),
            "collectives": list(self.collectives),
            "table": {
                "name": table.name,
                "rules": [
                    {
                        "collective": r.collective,
                        "algorithm": r.choice.algorithm,
                        "k": r.choice.k,
                        "min_ranks": r.min_ranks,
                        "max_ranks": r.max_ranks,
                        "min_bytes": r.min_bytes,
                        "max_bytes": r.max_bytes,
                    }
                    for r in table.rules
                ],
                "fallback": {
                    coll: {"algorithm": c.algorithm, "k": c.k}
                    for coll, c in table.fallback.items()
                },
            },
            "timings": self.timings,
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SelectionConfig":
        """Parse :meth:`to_json` output, refusing anything else.

        Every malformed document raises
        :class:`~repro.errors.SelectionError` naming the offending field:
        a wrong ``format`` or ``version`` (version skew must fail loudly,
        not replay timings recorded under different semantics), a member
        of the wrong JSON kind, a missing required member, or a rule or
        fallback the algorithm registry does not know.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SelectionError(
                f"malformed selection-config JSON: {exc}"
            ) from exc
        fmt = payload.get("format") if isinstance(payload, dict) else None
        if fmt != CONFIG_FORMAT:
            raise SelectionError(
                f"not a selection-config artifact (format={fmt!r}; "
                f"expected a JSON object with format {CONFIG_FORMAT!r})"
            )
        version = payload.get("version")
        if type(version) is not int or version != CONFIG_VERSION:
            raise SelectionError(
                f"selection-config version {version!r} is incompatible "
                f"with this build (expected {CONFIG_VERSION})"
            )
        doc = _members(payload, "", _DOCUMENT)
        for i, row in enumerate(doc["timings"]):
            _members(row, f"timings[{i}]", _TIMING)
        return cls(
            table=_table_from(doc["table"]),
            machine=doc["machine"],
            nranks=doc["nranks"],
            sizes=[_check(n, "an integer", f"sizes[{i}]")
                   for i, n in enumerate(doc["sizes"])],
            collectives=tuple(_check(c, "a string", f"collectives[{i}]")
                              for i, c in enumerate(doc["collectives"])),
            timings=list(doc["timings"]),
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the document to ``path`` (see :meth:`to_json`)."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SelectionConfig":
        """Read a document previously written by :meth:`save`."""
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise SelectionError(
                f"cannot read selection config {str(path)!r}: {exc}"
            ) from exc
        return cls.from_json(text)

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable summary (the CLI's and smoke driver's dump)."""
        return (
            f"selection config: machine={self.machine} p={self.nranks} "
            f"sizes={self.sizes} collectives={list(self.collectives)} "
            f"({len(self.timings)} recorded timings)\n"
            + self.table.describe()
        )


#: The JSON kinds a document member may hold.
_KINDS = {
    "a string": str,
    "an integer": int,
    "an integer or null": (int, type(None)),
    "a number": (int, float),
    "a list": list,
    "an object": dict,
}

_REQUIRED = object()

#: The document's schema: per object, each member's JSON kind and the
#: value it takes when absent (``_REQUIRED``: it may not be absent).
_DOCUMENT = {
    "machine": ("a string", "unknown"),
    "nranks": ("an integer", 0),
    "sizes": ("a list", ()),
    "collectives": ("a list", ()),
    "table": ("an object", _REQUIRED),
    "timings": ("a list", ()),
}
_TABLE = {
    "name": ("a string", "unnamed"),
    "rules": ("a list", _REQUIRED),
    "fallback": ("an object", {}),
}
_CHOICE = {
    "algorithm": ("a string", _REQUIRED),
    "k": ("an integer or null", None),
}
_RULE = {
    "collective": ("a string", _REQUIRED),
    **_CHOICE,
    "min_ranks": ("an integer", 1),
    "max_ranks": ("an integer or null", None),
    "min_bytes": ("an integer", 0),
    "max_bytes": ("an integer or null", None),
}
_TIMING = {
    "collective": ("a string", _REQUIRED),
    "algorithm": ("a string", _REQUIRED),
    "k": ("an integer or null", _REQUIRED),
    "root": ("an integer", _REQUIRED),
    "nbytes": ("an integer", _REQUIRED),
    "time": ("a number", _REQUIRED),
}


def _name(where: str, key: Optional[str]) -> str:
    if key is None:
        return where
    return f"{where}.{key}" if where else key


def _check(value, kind: str, where: str, key: Optional[str] = None):
    """``value`` if it is of JSON ``kind``, else a SelectionError naming
    the member (``bool`` is never a number here, though Python's is)."""
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
        raise SelectionError(f"selection config: {_name(where, key)} must "
                             f"be {kind}, got {value!r}")
    return value


def _members(obj, where: str, schema: Dict) -> Dict:
    """The members ``schema`` lists of the object at ``where``, each
    checked by :func:`_check`, or its default when absent."""
    _check(obj, "an object", where)
    members = {}
    for key, (kind, default) in schema.items():
        if key in obj:
            members[key] = _check(obj[key], kind, where, key)
        elif default is _REQUIRED:
            raise SelectionError(
                f"selection config: {_name(where, key)} is missing")
        else:
            members[key] = default
    return members


def _table_from(raw) -> SelectionTable:
    """The document's ``"table"`` member, every rule and fallback
    revalidated against the algorithm registry."""
    members = _members(raw, "table", _TABLE)
    table = SelectionTable(name=members["name"])
    for i, raw_rule in enumerate(members["rules"]):
        where = f"table.rules[{i}]"
        r = _members(raw_rule, where, _RULE)
        try:
            table.add(Rule(r["collective"], Choice(r["algorithm"], r["k"]),
                           r["min_ranks"], r["max_ranks"],
                           r["min_bytes"], r["max_bytes"]))
        except SelectionError as exc:
            raise SelectionError(f"selection config: {where}: {exc}") from exc
    for collective, raw_choice in members["fallback"].items():
        where = f"table.fallback.{collective}"
        c = _members(raw_choice, where, _CHOICE)
        choice = Choice(c["algorithm"], c["k"])
        try:
            _check_choice(collective, choice)
        except SelectionError as exc:
            raise SelectionError(f"selection config: {where}: {exc}") from exc
        table.fallback[collective] = choice
    return table
