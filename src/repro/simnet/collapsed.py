"""Class-collapsed discrete-event simulation: one representative per
rank-equivalence class.

The materialized table (:func:`repro.simnet.simulate.simulate`) has one
kernel actor per rank and one row per message — cost linear in ``p``.
On symmetric topologies the partition computed by
:mod:`repro.compile.classes` proves that all members of a class execute
isomorphic programs against isomorphic peers, so their event timings are
identical: it suffices to simulate **one representative rank per class**
— the same kernel (:mod:`repro.simnet.kernel`) over a table whose actors
are classes — and fan the per-class results back out to all ``p`` ranks
with one NumPy gather (:class:`ClassBatch`).

Soundness rests on two facts the classifier verifies:

* every resource in an eligible machine is **private to one rank**
  (one rank per node, no shared intranode fabric or dragonfly channel
  pools — :func:`repro.compile.classes.machine_asymmetry`), so a
  representative's private port/compute resources see exactly the
  contention the real rank's would;
* for every (class, send op) pair the matched receives land in exactly
  one receiver class with a 1:1 sender↔receiver bijection, so
  redirecting the representative's send to the receiver class's
  representative preserves both endpoints' event structure.

Costs are the materialized table's by construction — both call
:func:`repro.simnet.simulate.cost_columns` — and rows are numbered the
way the representatives' traffic is in the materialized table (classes
ascending, ops in program order), which pins identical tie-breaking;
the golden-grid suite pins bit-identical results at small ``p``.  The
asymmetric features — noise, faults, timelines, custom block maps —
are not modeled here; the dispatcher in
:func:`repro.simnet.simulate.simulate` routes those runs to the
materialized table instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..compile.classes import RankClasses
from ..compile.program import OP_RECV, OP_REDUCE_RECV, OP_SEND
from ..errors import ClassAnalysisError, MachineError
from ..obs import Obs, get_obs
from . import kernel
from .machine import LINK_GLOBAL, LINK_INTER, LINK_NAMES, MachineSpec
from .simulate import SimResult, cost_columns

__all__ = ["simulate_collapsed", "ClassBatch"]


class ClassBatch:
    """Vectorized fan-out from per-class simulation state to per-rank state.

    The class-collapsed simulator runs one kernel actor per
    rank-equivalence class; everything per-rank it reports is a *batch
    expansion* of per-class values.  This helper owns that expansion so
    advancing all members of a class is one NumPy operation (a
    fancy-indexed gather), never a Python loop over ``p`` ranks — the
    step that keeps result assembly sublinear-friendly at ``p = 10^6``.
    """

    __slots__ = ("labels", "sizes")

    def __init__(self, labels: np.ndarray, sizes: np.ndarray) -> None:
        self.labels = labels          # int32 [nranks]: class id per rank
        self.sizes = sizes            # int64 [nclasses]: members per class

    @property
    def nranks(self) -> int:
        """Total ranks covered by the batch."""
        return len(self.labels)

    @property
    def nclasses(self) -> int:
        """Number of equivalence classes."""
        return len(self.sizes)

    def expand(self, per_class: np.ndarray) -> np.ndarray:
        """Per-rank array from a per-class one: one gather, no loop.

        >>> import numpy as np
        >>> batch = ClassBatch(np.array([0, 1, 0, 1]), np.array([2, 2]))
        >>> batch.expand(np.array([1.5, 2.5])).tolist()
        [1.5, 2.5, 1.5, 2.5]
        """
        return np.asarray(per_class)[self.labels]

    def total(self, per_class: np.ndarray) -> int:
        """Population total of a per-class count (weighted by class size).

        >>> import numpy as np
        >>> batch = ClassBatch(np.array([0, 0, 0, 1]), np.array([3, 1]))
        >>> batch.total(np.array([2, 5]))
        11
        """
        return int(np.dot(np.asarray(per_class, dtype=np.int64), self.sizes))


def _message_table(classes: RankClasses, nbytes: int) -> dict:
    """One row per (class, send op): the class→class message standing
    for ``size`` identical rank→rank ones.

    Rows are numbered iterating classes in ascending class order and ops
    in program order — the order the representatives' traffic takes in
    the materialized table, which pins identical FIFO tie-breaking on
    the event heap.  Returns the per-row columns and, per class and raw
    step, the op codes ``row << 1 | is_recv``.  Raises
    :class:`~repro.errors.ClassAnalysisError` if the redirection tables
    do not cover every receive exactly once (defensive: :func:`classify`
    already verified the bijection).
    """
    out_row: List[Dict[int, int]] = [{} for _ in classes.classes]
    in_row: List[Dict[int, int]] = [{} for _ in classes.classes]
    cols: Dict[str, list] = {
        "src": [], "dst": [], "nbytes": [], "link": [], "reduce": [],
    }
    for ci, cls in enumerate(classes.classes):
        kinds = cls.kinds
        op_bytes = cls.op_bytes(nbytes, classes.nblocks)
        for j in np.flatnonzero(kinds == OP_SEND).tolist():
            target = cls.send_target[j]
            if target is None:
                raise ClassAnalysisError(
                    f"class {ci} send op {j} has no redirection target"
                )
            tc, tj = target
            tkinds = classes.classes[tc].kinds
            if tj < 0 or tj >= len(tkinds) or tkinds[tj] not in (
                OP_RECV, OP_REDUCE_RECV
            ):
                raise ClassAnalysisError(
                    f"class {ci} send op {j} targets class {tc} op {tj}, "
                    f"which is not a receive"
                )
            if tj in in_row[tc]:
                raise ClassAnalysisError(
                    f"class {tc} recv op {tj} matched by two sends"
                )
            out_row[ci][j] = in_row[tc][tj] = len(cols["src"])
            cols["src"].append(ci)
            cols["dst"].append(tc)
            cols["nbytes"].append(int(op_bytes[j]))
            cols["link"].append(int(cls.link[j]))
            cols["reduce"].append(bool(tkinds[tj] == OP_REDUCE_RECV))
    ops = []
    for ci, cls in enumerate(classes.classes):
        try:
            ops.append(tuple(
                tuple(
                    out_row[ci][j] << 1 if is_send else in_row[ci][j] << 1 | 1
                    for is_send, j in step
                )
                for step in cls.feed
            ))
        except KeyError as exc:
            raise ClassAnalysisError(
                f"class {ci} recv op {exc.args[0]} is not covered by any send"
            ) from None
    cols["ops"] = tuple(ops)
    return cols


def simulate_collapsed(
    classes: RankClasses,
    machine: MachineSpec,
    nbytes: int,
    *,
    schedule_desc: str = "",
    obs: Optional[Obs] = None,
) -> SimResult:
    """Simulate one representative per class; fan results out to all ranks.

    ``classes`` must come from :func:`repro.compile.classes.classify` for
    this machine and a total with the same ``nbytes % nblocks`` residue.
    Returns a :class:`~repro.simnet.simulate.SimResult` whose
    ``rank_times`` is a ``numpy`` array (``expand``-ed per-class times)
    and whose traffic counters are class-size-weighted totals — the same
    numbers the materialized engine reports for the same run.
    """
    if machine.nranks != classes.nranks:
        raise MachineError(
            f"{machine.name} hosts {machine.nranks} ranks but the class "
            f"partition covers {classes.nranks}"
        )
    if nbytes < 0:
        raise MachineError(f"nbytes must be >= 0, got {nbytes}")
    if nbytes % classes.nblocks != classes.residue:
        raise ClassAnalysisError(
            f"partition was built for residue {classes.residue} but "
            f"nbytes={nbytes} has residue {nbytes % classes.nblocks}"
        )
    scope = get_obs(obs)
    nclasses = classes.nclasses
    sizes = np.array([c.size for c in classes.classes], dtype=np.int64)
    batch = ClassBatch(classes.labels, sizes)

    table = _message_table(classes, nbytes)
    src, dst = table["src"], table["dst"]
    row_bytes = np.array(table["nbytes"], dtype=np.int64)
    link = np.array(table["link"], dtype=np.int8)
    costs = cost_columns(
        machine, row_bytes, link, np.array(table["reduce"], dtype=bool),
        [len(c.feed) for c in classes.classes],
    )

    # Class-size-weighted traffic accounting (ppn == 1: all inter-node).
    weight = sizes[src]
    n_messages = int(weight.sum())
    global_messages = int(weight[link == LINK_GLOBAL].sum())
    inter_bytes = sum(
        n * w for n, w in zip(table["nbytes"], weight.tolist())
    )

    with scope.span(
        "simulate",
        schedule=schedule_desc,
        machine=machine.name,
        nbytes=nbytes,
        engine="collapsed",
        nclasses=nclasses,
    ):
        # Private per-representative resources: eligibility
        # (machine_asymmetry) guarantees the real machine shares nothing
        # between ranks, so one send port pool (id c), one receive port
        # pool (C + c) and one compute unit per class is exact.
        makespan, rep_times, _, _ = kernel.run(
            ops=table["ops"], src=src, dst=dst,
            held=[(s, nclasses + d) for s, d in zip(src, dst)],
            capacity=[machine.nic_ports] * (2 * nclasses),
            obs=scope, **costs,
        )
        if scope.enabled:
            m = scope.metrics
            m.counter("repro_sim_runs_total").inc()
            for name, count in (
                (LINK_NAMES[LINK_INTER], n_messages - global_messages),
                (LINK_NAMES[LINK_GLOBAL], global_messages),
            ):
                if count:
                    m.counter(
                        "repro_sim_messages_total", link=name
                    ).inc(count)

    return SimResult(
        time=makespan,
        rank_times=batch.expand(np.array(rep_times, dtype=np.float64)),
        messages=n_messages,
        intra_messages=0,
        inter_messages=n_messages,
        global_messages=global_messages,
        intra_bytes=0,
        inter_bytes=inter_bytes,
        engine="collapsed",
        nclasses=nclasses,
    )
