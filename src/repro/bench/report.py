"""Plain-text report formatting for experiment output.

The benchmark harness prints the same rows/series the paper's figures
plot; these helpers keep that output aligned, unit-labeled, and diffable
(fixed column widths, deterministic ordering).  :class:`ExperimentResult`,
the record every experiment and ablation returns, lives here too, so
:mod:`repro.bench.experiments` (which registers the ablations) and
:mod:`repro.bench.ablations` both import it from a leaf module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "ExperimentResult",
    "format_size",
    "format_table",
    "geomean",
    "speedup_str",
]

_UNITS = ["B", "KiB", "MiB", "GiB"]


def format_size(nbytes: int) -> str:
    """Human-readable message size, OSU style.

    >>> format_size(8)
    '8B'
    >>> format_size(65536)
    '64KiB'
    >>> format_size(4 * 1024 * 1024)
    '4MiB'
    """
    if nbytes < 0:
        raise ValueError(f"negative size {nbytes}")
    size = float(nbytes)
    for unit in _UNITS:
        if size < 1024 or unit == _UNITS[-1]:
            if size == int(size):
                return f"{int(size)}{unit}"
            return f"{size:.1f}{unit}"
        size /= 1024
    raise AssertionError("unreachable")


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table.

    Numbers are right-aligned; floats get two decimals unless they already
    arrive as strings.
    """
    def cell(x: object) -> str:
        if isinstance(x, float):
            return f"{x:.2f}"
        return str(x)

    str_rows: List[List[str]] = [[cell(x) for x in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            "  ".join(
                c.rjust(widths[i]) if _numericish(c) else c.ljust(widths[i])
                for i, c in enumerate(row)
            )
        )
    return "\n".join(lines)


def _numericish(s: str) -> bool:
    try:
        float(s.rstrip("x%"))
        return True
    except ValueError:
        return False


def geomean(values: Sequence[float]) -> float:
    """Geometric mean — the right average for speedup ratios.

    >>> round(geomean([2.0, 8.0]), 3)
    4.0
    """
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup_str(ratio: float) -> str:
    """Format a speedup ratio the way the paper quotes them ("1.4x")."""
    return f"{ratio:.2f}x"


@dataclass
class ExperimentResult:
    """Output of one reproduced experiment."""

    exp_id: str
    title: str
    paper_claim: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def summary(self) -> str:
        lines = [f"== {self.exp_id}: {self.title} ==",
                 f"paper: {self.paper_claim}", "", self.text, ""]
        for name, ok, detail in self.checks:
            mark = "PASS" if ok else "DIVERGES"
            lines.append(f"[{mark}] {name}" + (f" — {detail}" if detail else ""))
        return "\n".join(lines)
