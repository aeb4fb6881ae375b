"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls it
makes into each layer's public functions — nothing inside :mod:`repro`
is touched.  They stay in memory for the whole run and are written out
once, at exit (``perfbench/out/trace-<workload>.json``).

A span is ``(name, layer, start, end, parent, unit, rep)``: ``parent``
is the index of the enclosing span (``None`` at top level), ``unit`` the
cycle unit that caused it (spans of one unit share it), ``rep`` the
repetition.  Only the benchmark's main thread opens spans, so a plain
stack gives the parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

Span = Tuple[str, str, float, float, Optional[int], Optional[str], int]


class Tracer:
    """Records nested spans; see the module docstring for the shape."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._rep = 0

    def next_rep(self) -> None:
        """Advance the repetition stamped on subsequent spans."""
        self._rep += 1

    @contextmanager
    def span(self, name: str, layer: str,
             unit: Optional[str] = None) -> Iterator[None]:
        """Time the body as one span of ``layer``.

        ``unit`` defaults to the enclosing span's, so stages opened
        inside a unit's span inherit its identifier.
        """
        parent = self._stack[-1] if self._stack else None
        if unit is None and parent is not None:
            unit = self.spans[parent][5]
        idx = len(self.spans)
        self.spans.append((name, layer, 0.0, 0.0, parent, unit, self._rep))
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, layer, t0, t1, parent, unit, self._rep)

    def write(self, path: Path) -> None:
        """Dump every span as a JSON list of objects."""
        keys = ("name", "layer", "start", "end", "parent", "unit_id", "rep")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            [dict(zip(keys, span)) for span in self.spans]
        ))
