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

from typing import List, Optional

from ..errors import ScheduleError
from .knomial import knomial_bcast
from .schedule import OP_SEND, Schedule, SendOp

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


def render_rounds(schedule: Schedule, *, max_rounds: Optional[int] = None) -> str:
    """Render a rank-symmetric schedule round by round (Figs. 3–6 style).

    Each line lists one logical round's messages as ``src→dst[blocks]``.
    Only meaningful for schedules whose ranks advance in lockstep (the
    butterfly/ring/dissemination families); tree schedules should use
    :func:`render_knomial_tree`.
    """
    nsteps = max(len(prog.steps) for prog in schedule.programs) if (
        schedule.programs
    ) else 0
    if max_rounds is not None:
        nsteps = min(nsteps, max_rounds)
    lines = [schedule.describe()]
    for step in range(nsteps):
        parts = []
        for prog in schedule.programs:
            if step >= len(prog.steps):
                continue
            for op in prog.steps[step].ops:
                if isinstance(op, SendOp):
                    blocks = (
                        ""
                        if schedule.nblocks == 1
                        else "[" + ",".join(map(str, op.blocks)) + "]"
                    )
                    parts.append(f"{prog.rank}→{op.peer}{blocks}")
        lines.append(f"  round {step + 1}: " + "  ".join(parts))
    return "\n".join(lines)


def render_kring_rounds(p: int, k: int) -> str:
    """Fig. 6: the k-ring allgather's alternating intra/inter structure.

    >>> text = render_kring_rounds(6, 3)
    >>> "inter" in text and "intra" in text
    True
    """
    from .ring import kring_allgather, kring_groups

    sched = kring_allgather(p, k)
    groups = kring_groups(p, k)
    group_of = {}
    for gi, grp in enumerate(groups):
        for r in grp:
            group_of[r] = gi
    nsteps = max(len(prog.steps) for prog in sched.programs)
    lines = [f"k-ring allgather p={p} k={k} (groups {groups})"]
    for step in range(nsteps):
        parts = []
        kinds = set()
        for prog in sched.programs:
            if step >= len(prog.steps):
                continue
            for op in prog.steps[step].ops:
                if isinstance(op, SendOp):
                    kind = (
                        "intra"
                        if group_of[prog.rank] == group_of[op.peer]
                        else "inter"
                    )
                    kinds.add(kind)
                    parts.append(f"{prog.rank}→{op.peer}")
        kind_label = "/".join(sorted(kinds)) if kinds else "idle"
        lines.append(f"  round {step + 1} ({kind_label}): " + "  ".join(parts))
    return "\n".join(lines)
