"""ASCII rendering of algorithm structure — the paper's Figs. 1–6.

The paper explains each kernel with a diagram: the binomial/trinomial
gather trees (Figs. 1–2), the recursive doubling/multiplying exchange
rounds (Figs. 3–4), the ring (Fig. 5), and the k-ring round structure
(Fig. 6).  These renderers regenerate those diagrams from the *actual
schedules*, so the pictures can never drift from the code — and the
``figdiagrams`` experiment checks the structural facts each paper figure
is captioned with (tree depths, round counts, who-talks-to-whom).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import ScheduleError
from .knomial import knomial_bcast
from .schedule import OP_SEND, Schedule

__all__ = ["render_knomial_tree", "render_rounds", "render_kring_rounds"]


def render_knomial_tree(p: int, k: int, *, root: int = 0) -> str:
    """Draw the k-nomial tree the way Figs. 1–2 do (root at top): each
    rank's children are its send peers in :func:`knomial_bcast`'s
    columns, in op order — largest subtree first.

    >>> print(render_knomial_tree(6, 3))  # doctest: +NORMALIZE_WHITESPACE
    0
    ├── 3
    │   ├── 4
    │   └── 5
    ├── 1
    └── 2
    """
    if p < 1:
        raise ScheduleError(f"p must be >= 1, got {p}")
    cols = knomial_bcast(p, k, root=root).columns()
    sends = cols.kinds == OP_SEND
    children: List[List[int]] = [[] for _ in range(p)]
    for rank, peer in zip(cols.ranks()[sends].tolist(),
                          cols.peers[sends].tolist()):
        children[rank].append(peer)
    lines: List[str] = [str(root)]

    def visit(rank: int, prefix: str) -> None:
        for idx, child in enumerate(children[rank]):
            last = idx == len(children[rank]) - 1
            connector = "└── " if last else "├── "
            lines.append(prefix + connector + str(child))
            visit(child, prefix + ("    " if last else "│   "))

    visit(root, "")
    return "\n".join(lines)


def _round_sends(
    schedule: Schedule, max_rounds: Optional[int] = None
) -> List[List[Tuple[int, int, Tuple[int, ...]]]]:
    """Round ``t`` of a lockstep schedule is every rank's step ``t``:
    per round, its sends as ``(src, dst, blocks)``, rank-major in
    program order — one pass over the columns."""
    cols = schedule.columns()
    nsteps = int(cols.nsteps().max())
    if max_rounds is not None:
        nsteps = min(nsteps, max_rounds)
    sends = np.flatnonzero(cols.kinds == OP_SEND)
    step = cols.positions()[0][sends]
    by = np.argsort(step, kind="stable")
    sends = sends[by]
    cut = np.searchsorted(step[by], np.arange(max(nsteps, 0) + 1)).tolist()
    src, dst = cols.ranks()[sends].tolist(), cols.peers[sends].tolist()
    blocks = cols.blocks_of(sends)
    return [list(zip(src[a:b], dst[a:b], blocks[a:b]))
            for a, b in zip(cut, cut[1:])]


def render_rounds(schedule: Schedule, *, max_rounds: Optional[int] = None) -> str:
    """Render a rank-symmetric schedule round by round (Figs. 3–6 style).

    Each line lists one logical round's messages as ``src→dst[blocks]``.
    Only meaningful for schedules whose ranks advance in lockstep (the
    butterfly/ring/dissemination families); tree schedules should use
    :func:`render_knomial_tree`.
    """
    lines = [schedule.describe()]
    for t, sends in enumerate(_round_sends(schedule, max_rounds)):
        parts = [
            f"{src}→{dst}" + (
                "" if schedule.nblocks == 1
                else "[" + ",".join(map(str, blocks)) + "]"
            )
            for src, dst, blocks in sends
        ]
        lines.append(f"  round {t + 1}: " + "  ".join(parts))
    return "\n".join(lines)


def render_kring_rounds(p: int, k: int) -> str:
    """Fig. 6: the k-ring allgather's alternating intra/inter structure.

    >>> text = render_kring_rounds(6, 3)
    >>> "inter" in text and "intra" in text
    True
    """
    from .ring import kring_allgather, kring_groups

    groups = kring_groups(p, k)
    lines = [f"k-ring allgather p={p} k={k} (groups {groups})"]
    for t, sends in enumerate(_round_sends(kring_allgather(p, k))):
        # Groups are runs of k consecutive ranks.
        kinds = {"intra" if src // k == dst // k else "inter"
                 for src, dst, _ in sends}
        kind_label = "/".join(sorted(kinds)) if kinds else "idle"
        lines.append(
            f"  round {t + 1} ({kind_label}): "
            + "  ".join(f"{src}→{dst}" for src, dst, _ in sends)
        )
    return "\n".join(lines)
