"""Lazy generator programs: closed-form per-rank schedules that never
materialize ``p`` step lists.

The builders in :mod:`repro.core` construct every rank's program
explicitly — fine at the acceptance grid's p ≤ 128, fatal at the paper's
p-regime (a p=4096 ring allgather is ~33 million IR ops; p=10⁶ is out of
the question).  But the algorithms whose large-p behavior the paper
actually plots are *rank-symmetric*: every rank runs the same program up
to a peer/block relabeling, so the whole schedule is determined by rank
0's program plus the relabeling group.  A :class:`LazySchedule` stores
exactly that — a closed-form table generator per rank and the symmetry
maps — and produces:

* ``materialize()`` — the explicit schedule on demand, via the registry
  builder (small p only; the faithfulness tests pin the generated
  tables to that build's columns);
* ``classes(machine, nbytes)`` — a single-class
  :class:`~repro.compile.classes.RankClasses` whose class plan the
  collapsed core simulates, built in O(ops of one rank) without
  compiling anything, after *verifying* the claimed symmetry with probe
  ranks: the generated tables of sampled ranks must equal rank 0's
  tables pushed through the relabeling maps.

Scope: the closed forms cover the ring family (``allgather``,
``reduce_scatter``, ``allreduce``) and ``recursive_doubling`` allreduce
at p = 2^m — the symmetric algorithms with, respectively, the paper's
bandwidth-optimal and latency-optimal large-p behavior.  Butterfly
radices k > 2 are deliberately excluded: their per-rank partner *order*
depends on the rank's digit, so their ranks are not relabelings of each
other (the partition refinement in :func:`repro.compile.classes.classify`
discovers the same fact and refines them to p classes).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ClassAnalysisError, ScheduleError
from .blocks import BlockMap
from .schedule import Columns, build_sim_plan

__all__ = ["LazySchedule", "lookup", "LAZY_FAMILIES"]

# Op codes, mirroring repro.compile.program (imported lazily there to
# keep core/ free of upward imports at module load).
_SEND = 0
_RECV = 1
_REDUCE_RECV = 2

#: Cap on ``materialize()``: schedules whose explicit IR would exceed
#: this op count refuse to expand (the caller asked for the one thing
#: lazy schedules exist to avoid).
_MATERIALIZE_MAX_OPS = 4_000_000


class _Tables:
    """One rank's flat program: single-block ops in raw steps."""

    __slots__ = ("kinds", "peers", "block", "steps_raw")

    def __init__(self, kinds: np.ndarray, peers: np.ndarray,
                 block: np.ndarray, steps_raw: np.ndarray) -> None:
        self.kinds = kinds          # int8 per op
        self.peers = peers          # int32 per op
        self.block = block          # int32 per op (single block payload)
        self.steps_raw = steps_raw  # int32 [nsteps+1]


class LazySchedule:
    """A rank-symmetric schedule defined by closed-form per-rank tables.

    Duck-types the :class:`~repro.core.schedule.Schedule` surface the
    simulator dispatch needs (``nranks``, ``nblocks``, ``root``, ``k``,
    ``describe``, ``fingerprint``, ``block_map``) plus the lazy hooks:
    ``is_lazy`` marks it for :func:`repro.simnet.simulate.simulate`,
    ``classes()`` feeds the collapsed engine directly, and
    ``materialize()`` expands to a real :class:`Schedule` via the
    registry builder when a run needs the materialized engine.
    """

    is_lazy = True

    def __init__(
        self,
        collective: str,
        algorithm: str,
        nranks: int,
        nblocks: int,
        *,
        k: Optional[int],
        tables: Callable[[int], _Tables],
        sigma: Callable[[np.ndarray, int], np.ndarray],
        tau: Callable[[np.ndarray, int], np.ndarray],
    ) -> None:
        self.collective = collective
        self.algorithm = algorithm
        self.nranks = nranks
        self.nblocks = nblocks
        self.root: Optional[int] = None
        self.k = k
        self._tables = tables
        self._sigma = sigma  # peer relabeling: rank r's peers = sigma(rank 0's, r)
        self._tau = tau      # block relabeling, same shape
        self._classes_cache: Dict[int, "RankClasses"] = {}

    # -- Schedule surface --------------------------------------------------

    def describe(self) -> str:
        """One-line description, matching :meth:`Schedule.describe`."""
        bits = [self.collective, self.algorithm, f"p={self.nranks}"]
        if self.k is not None:
            bits.append(f"k={self.k}")
        return " ".join(bits) + " (lazy)"

    def fingerprint(self) -> str:
        """Content hash over the parameters and rank 0's generated tables."""
        t = self._tables(0)
        h = hashlib.sha256()
        h.update(
            f"lazy|{self.collective}|{self.algorithm}|{self.nranks}|"
            f"{self.nblocks}|{self.root}|{self.k}".encode()
        )
        for arr, dt in ((t.kinds, "<i1"), (t.peers, "<i4"),
                        (t.block, "<i4"), (t.steps_raw, "<i4")):
            h.update(np.ascontiguousarray(arr, dtype=dt).tobytes())
        return h.hexdigest()

    def block_map(self, total: int) -> BlockMap:
        """The MPICH block partition for ``total`` bytes."""
        return BlockMap(total, self.nblocks)

    # -- Explicit IR (small p) ---------------------------------------------

    def materialize(self):
        """The equivalent explicit :class:`Schedule`, via the registry
        builder — refused above ``_MATERIALIZE_MAX_OPS`` total ops."""
        t = self._tables(0)
        est = len(t.kinds) * self.nranks
        if est > _MATERIALIZE_MAX_OPS:
            raise ScheduleError(
                f"{self.describe()}: ~{est} ops is too large to "
                f"materialize; use the collapsed engine"
            )
        from .registry import build_schedule

        return build_schedule(self.collective, self.algorithm, self.nranks)

    # -- Collapsed-engine feed ---------------------------------------------

    def classes(self, machine, nbytes: int):
        """Single-class :class:`~repro.compile.classes.RankClasses`.

        Verifies eligibility
        (:func:`~repro.compile.classes.check_machine`, no dragonfly
        grouping — group boundaries would give boundary ranks different
        link classes), uniform block sizes (``nbytes % nblocks == 0`` —
        otherwise members move different byte counts per op), and the
        claimed rank symmetry via probe ranks.  Raises
        :class:`~repro.errors.ClassAnalysisError` on any violation, which
        the engine dispatcher converts into a materialized fallback.
        The class plan is built here, from rank 0's tables, by the same
        :func:`~repro.core.schedule.build_sim_plan` as every plan.
        """
        from ..compile.classes import (
            LINK_INTER,
            RankClasses,
            check_machine,
            link_profile,
        )

        p = self.nranks
        check_machine(machine, p)
        _, npg = link_profile(machine)
        if npg:
            raise ClassAnalysisError(
                "dragonfly grouping gives boundary ranks different link "
                "classes; single-class symmetry does not hold"
            )
        residue = nbytes % self.nblocks
        if residue:
            raise ClassAnalysisError(
                f"nbytes={nbytes} is not a multiple of {self.nblocks} "
                f"blocks; non-uniform block sizes break rank symmetry"
            )
        cached = self._classes_cache.get(residue)
        if cached is not None:
            return cached

        t0 = self._tables(0)
        self._verify_symmetry(t0)
        recv_at, seq = self._send_targets(t0)
        nops, nbounds = len(t0.kinds), len(t0.steps_raw)
        rank0 = Columns(
            kinds=t0.kinds,
            peers=t0.peers,
            seg_bounds=np.arange(nops + 1),
            seg_blocks=t0.block,
            steps_raw=t0.steps_raw,
            op_ptr=np.array([0, nops]),
            step_ptr=np.array([0, nbounds]),
        )
        out = RankClasses(
            nranks=p,
            nblocks=self.nblocks,
            residue=residue,
            labels=np.zeros(p, dtype=np.int32),
            sizes=np.array([p], dtype=np.int64),
            plan=build_sim_plan(
                rank0, recv_at, seq,
                np.full(len(recv_at), LINK_INTER, dtype=np.int8),
            ),
        )
        self._classes_cache[residue] = out
        return out

    def _verify_symmetry(self, t0: _Tables) -> None:
        """Probe ranks must equal rank 0's tables under the relabeling."""
        p = self.nranks
        probes = sorted(
            r for r in {1, 2, 3, p // 2, p // 2 + 1, p - 2, p - 1}
            if 0 < r < p
        )
        for r in probes:
            tr = self._tables(r)
            if not (
                np.array_equal(tr.kinds, t0.kinds)
                and np.array_equal(tr.steps_raw, t0.steps_raw)
                and np.array_equal(tr.peers, self._sigma(t0.peers, r))
                and np.array_equal(tr.block, self._tau(t0.block, r))
            ):
                raise ClassAnalysisError(
                    f"{self.describe()}: rank {r} is not a relabeling of "
                    f"rank 0 — generator symmetry violated"
                )

    def _send_targets(self, t0: _Tables) -> Tuple[List[int], List[int]]:
        """Per rank-0 send, in program order: the op index of its
        FIFO-matched receive, and its sequence number on its channel.

        For send op ``j`` to peer ``t``, the real message lands at the
        FIFO position of rank 0's sends on channel (0→t) among t's
        receives from 0; by the verified symmetry that op index is the
        same at every class member, so the collapsed core can deliver
        it to the representative's own receive op.  That the targets
        cover rank 0's receives exactly once is checked by
        :func:`~repro.core.schedule.build_sim_plan`.
        """
        kinds = t0.kinds.tolist()
        peers = t0.peers.tolist()
        peer_recv_from_0: Dict[int, List[int]] = {}
        for t in set(peers):
            tt = self._tables(t)
            idx = np.nonzero((tt.kinds != _SEND) & (tt.peers == 0))[0]
            peer_recv_from_0[t] = idx.tolist()
        fifo_pos: Dict[int, int] = {}
        recv_at: List[int] = []
        seq: List[int] = []
        for j, kind in enumerate(kinds):
            if kind != _SEND:
                continue
            t = peers[j]
            pos = fifo_pos.get(t, 0)
            fifo_pos[t] = pos + 1
            matches = peer_recv_from_0[t]
            if pos >= len(matches):
                raise ClassAnalysisError(
                    f"{self.describe()}: send op {j} to {t} has no "
                    f"matching receive"
                )
            recv_at.append(matches[pos])
            seq.append(pos)
        return recv_at, seq


# ----------------------------------------------------------------------
# Closed-form generators.  Formulas are pinned to the real builders by
# tests/test_lazy.py (program-for-program equality at small p).
# ----------------------------------------------------------------------


def _ring_allgather_tables(p: int) -> Callable[[int], _Tables]:
    # Step t (t = 1..p-1) of rank r: send block (r-t+1)%p to (r+1)%p,
    # then recv block (r-t)%p from (r-1)%p — kring_allgather's intra
    # epoch with one group of size p.
    def tables(r: int) -> _Tables:
        t = np.arange(1, p, dtype=np.int64)
        nsteps = p - 1
        kinds = np.tile(np.array([_SEND, _RECV], dtype=np.int8), nsteps)
        peers = np.empty(2 * nsteps, dtype=np.int32)
        peers[0::2] = (r + 1) % p
        peers[1::2] = (r - 1) % p
        block = np.empty(2 * nsteps, dtype=np.int32)
        block[0::2] = (r - t + 1) % p
        block[1::2] = (r - t) % p
        steps_raw = np.arange(0, 2 * nsteps + 1, 2, dtype=np.int32)
        return _Tables(kinds, peers, block, steps_raw)

    return tables


def _ring_reduce_scatter_tables(p: int) -> Callable[[int], _Tables]:
    # Time-reversed dual of the ring allgather (dualize_allgather):
    # steps run t = p-1 down to 1; flipped receives become sends first:
    # send block (r-t)%p to (r-1)%p, then reduce-recv block (r-t+1)%p
    # from (r+1)%p.
    def tables(r: int) -> _Tables:
        t = np.arange(p - 1, 0, -1, dtype=np.int64)
        nsteps = p - 1
        kinds = np.tile(np.array([_SEND, _REDUCE_RECV], dtype=np.int8), nsteps)
        peers = np.empty(2 * nsteps, dtype=np.int32)
        peers[0::2] = (r - 1) % p
        peers[1::2] = (r + 1) % p
        block = np.empty(2 * nsteps, dtype=np.int32)
        block[0::2] = (r - t) % p
        block[1::2] = (r - t + 1) % p
        steps_raw = np.arange(0, 2 * nsteps + 1, 2, dtype=np.int32)
        return _Tables(kinds, peers, block, steps_raw)

    return tables


def _concat_tables(first, second) -> Callable[[int], _Tables]:
    def tables(r: int) -> _Tables:
        a, b = first(r), second(r)
        return _Tables(
            np.concatenate([a.kinds, b.kinds]),
            np.concatenate([a.peers, b.peers]),
            np.concatenate([a.block, b.block]),
            np.concatenate([
                a.steps_raw,
                b.steps_raw[1:] + a.steps_raw[-1],
            ]).astype(np.int32),
        )

    return tables


def _recursive_doubling_allreduce_tables(p: int) -> Callable[[int], _Tables]:
    # Round i (stride 2^i) of rank r: send block 0 to r XOR stride, then
    # reduce-recv block 0 from the same partner — the radix-2 butterfly
    # with no fold (p is a power of two by construction).
    m = p.bit_length() - 1

    def tables(r: int) -> _Tables:
        strides = 1 << np.arange(m, dtype=np.int64)
        kinds = np.tile(np.array([_SEND, _REDUCE_RECV], dtype=np.int8), m)
        peers = np.empty(2 * m, dtype=np.int32)
        partners = np.bitwise_xor(r, strides)
        peers[0::2] = partners
        peers[1::2] = partners
        block = np.zeros(2 * m, dtype=np.int32)
        steps_raw = np.arange(0, 2 * m + 1, 2, dtype=np.int32)
        return _Tables(kinds, peers, block, steps_raw)

    return tables


def _shift_sigma(p: int):
    return lambda arr, r: ((arr.astype(np.int64) + r) % p).astype(arr.dtype)


def _xor_sigma(p: int):
    return lambda arr, r: np.bitwise_xor(arr.astype(np.int64), r).astype(arr.dtype)


def _identity_tau(p: int):
    return lambda arr, r: arr


#: (collective, algorithm) pairs :func:`lookup` can generate.
LAZY_FAMILIES: Tuple[Tuple[str, str], ...] = (
    ("allgather", "ring"),
    ("reduce_scatter", "ring"),
    ("allreduce", "ring"),
    ("allreduce", "recursive_doubling"),
)


def lookup(
    collective: str,
    algorithm: str,
    p: int,
    *,
    k: Optional[int] = None,
    root: Optional[int] = None,
) -> Optional[LazySchedule]:
    """A :class:`LazySchedule` for the request, or ``None`` if out of scope.

    Scope: :data:`LAZY_FAMILIES` at ``p >= 2`` (plus ``p`` a power of two
    for recursive doubling), default radix and root only — everything
    else returns ``None`` and the caller builds the schedule normally.

    >>> lookup("allgather", "ring", 8).describe()
    'allgather ring p=8 (lazy)'
    >>> lookup("allgather", "ring", 8, root=3) is None
    True
    >>> lookup("allreduce", "recursive_doubling", 12) is None
    True
    """
    if (collective, algorithm) not in LAZY_FAMILIES:
        return None
    if p < 2 or k is not None or root not in (None, 0):
        return None
    shift, tau = _shift_sigma(p), _identity_tau(p)
    if (collective, algorithm) == ("allgather", "ring"):
        return LazySchedule(collective, algorithm, p, p, k=None,
                            tables=_ring_allgather_tables(p),
                            sigma=shift, tau=shift)
    if (collective, algorithm) == ("reduce_scatter", "ring"):
        return LazySchedule(collective, algorithm, p, p, k=None,
                            tables=_ring_reduce_scatter_tables(p),
                            sigma=shift, tau=shift)
    if (collective, algorithm) == ("allreduce", "ring"):
        return LazySchedule(collective, algorithm, p, p, k=None,
                            tables=_concat_tables(
                                _ring_reduce_scatter_tables(p),
                                _ring_allgather_tables(p),
                            ),
                            sigma=shift, tau=shift)
    # allreduce / recursive_doubling: p must be a power of two (the
    # registry builder folds odd remainders, which breaks symmetry).
    if p & (p - 1):
        return None
    return LazySchedule(collective, algorithm, p, 1, k=2,
                        tables=_recursive_doubling_allreduce_tables(p),
                        sigma=_xor_sigma(p), tau=tau)
