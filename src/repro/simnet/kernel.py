"""The discrete-event kernel: one flat event loop over message tables.

Everything the simulator models is a constant fixed before the loop
starts — which messages exist, who posts them in which step, which
resources each one holds, what every phase costs, how many attempts are
lost, which messages never arrive.  So the kernel owns no objects: a
*message* is a row index into flat per-message columns, a *resource* is
an index into ``in_use[]`` / ``capacity[]`` / a FIFO deque of parked
message ids, an *actor* (a rank, or a rank-class representative) is four
integers ``(step, op, outstanding, waiting)`` — its step and op are
global indices into the flat step and op tables, so its cursor runs
straight through its steps — and a heap record is a
``(time, seq, kind, id)`` tuple of plain numbers dispatched by one
``if``/``elif`` over six kinds.  One caller feeds it,
:func:`repro.simnet.simulate.simulate`, from one kind of table — a
:class:`~repro.core.schedule.SimPlan`, whose actors are the ranks or,
in a class plan, the rank classes' representatives.

A message's life: both endpoints *post* it (each post costs the poster
its injection overhead, serially); the second post starts the transfer,
which acquires its resources in their fixed order, holds them for the
serialization time, releases them, completes the send, and delivers
after the wire latency — through the receiver's capacity-1 compute unit
when it reduces.  A lost attempt holds, releases, and waits out a
backed-off timeout before trying again.

Results are reproducible to the last digit because the order of
same-time events is part of the contract (DESIGN.md §7): heap ties break
by push order, and everything that happens *between* heap events —
posting, starting a transfer, handing a released unit to the oldest
parked message, advancing an actor into its next step — happens
synchronously, in the order written here.  ``tests/golden/
des_corners.json`` pins that order on contended machines.

Most runs never exercise that order: where no transfer finds its
resources full and no reduction finds its receiver's compute unit busy,
nothing waits, and every time is the plain α-β-γ recurrence.  So
:func:`run` first evaluates the table's *capacity-free timeline*
(:func:`capacity_free`: one heap-free pass over the actors, the same
float additions in the same order as the loop's ``now + cost`` pushes)
and *certifies* it: one sort of every resource's and compute unit's
holding intervals, with intervals that merely touch counted as
overlapping.  A certified timeline is the loop's own result and is
returned as is; a table with loss, doomed messages, a collected
timeline, an unfinished actor or a failed certificate runs the loop
(DESIGN.md §7).
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import chain, count
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import MachineError
from ..obs import Obs

__all__ = ["run", "capacity_free", "flatten_held"]

# Heap record kinds.  The value never orders two records (``seq`` is
# unique), it only selects the branch.
_INJECT = 0      # an actor's injection overhead elapsed: post its next op
_LOST_HOLD = 1   # a lost attempt's serialization is done
_RTO = 2         # a lost attempt's retransmission timeout elapsed
_HOLD = 3        # the surviving attempt's serialization is done
_ALPHA = 4       # the wire latency elapsed
_GAMMA = 5       # the receive-side reduction is done


def run(
    *,
    codes: Sequence[int],
    bounds: Sequence[int],
    first: Sequence[int],
    limit: Sequence[int],
    inject: Sequence[float],
    src: Sequence[int],
    dst: Sequence[int],
    held: Sequence[Tuple[int, ...]],
    capacity: Sequence[int],
    hold: Sequence[float],
    final_hold: Sequence[float],
    alpha: Sequence[float],
    gamma_t: Sequence[float],
    attempts: Optional[Sequence[int]] = None,
    rto: Optional[Sequence[float]] = None,
    backoff: float = 1.0,
    doomed: Optional[Sequence[bool]] = None,
    collect: bool = False,
    held_ids: Optional[np.ndarray] = None,
    contended: Optional[Set[tuple]] = None,
    obs: Obs,
) -> Tuple[float, List[float], int, Optional[List[Tuple[int, float, float]]]]:
    """Run one simulation to completion.

    The actors' programs are CSR: global step ``g`` posts the op codes
    ``codes[bounds[g]:bounds[g + 1]]`` (``msg << 1 | is_recv``) in
    program order, and actor ``a`` owns global steps ``first[a]:first[a
    + 1]``, of which it posts the first ``limit[a]``, paying
    ``inject[a]`` for each post.  Per message: the actors
    ``src`` / ``dst``, the resource ids ``held`` (acquired in tuple
    order, released in reverse), the phase costs ``hold`` (a lost
    attempt) / ``final_hold`` (the surviving one) / ``alpha`` /
    ``gamma_t`` (negative: the receive does not reduce), and — with
    loss — the number of lost ``attempts`` and the base timeout ``rto``.
    ``doomed`` messages are posted to but never start and are never
    waited on.  ``capacity[r]`` sizes resource ``r``; every actor also
    owns one private compute unit.

    Returns ``(makespan, actor finish times, retransmissions, rows)``
    where ``rows`` is ``(msg, t_start, t_delivered)`` in delivery order
    when ``collect`` is set.  A drained heap with an actor unfinished or
    a live message undelivered raises
    :class:`~repro.errors.MachineError`.

    Without loss, doomed messages or ``collect``, a certified
    :func:`capacity_free` timeline is returned without the event loop.
    ``held_ids`` is ``held`` flattened (:func:`flatten_held`; derived
    here when absent).  ``contended`` is a hint the caller keeps per
    table: the capacity vectors under which this table failed a
    certificate.  Such a run goes straight to the loop, and a failure
    adds its vector; no result depends on it.
    """
    if not collect and attempts is None and doomed is None:
        key = tuple(capacity)
        if contended is None or key not in contended:
            makespan, times, certified = capacity_free(
                codes=codes, bounds=bounds, first=first, limit=limit,
                inject=inject, src=src, dst=dst,
                held=held, capacity=capacity, final_hold=final_hold,
                alpha=alpha, gamma_t=gamma_t, held_ids=held_ids,
            )
            if certified:
                if obs.enabled:
                    _count(obs, events=0, peak=0, blocked=0, certified=True)
                return makespan, times, 0, None
            if contended is not None:
                contended.add(key)
    nact = len(first) - 1
    nmsg = len(src)
    now = 0.0
    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = count(1).__next__

    step = first[:-1]            # actor: current global step, ...
    opi = [bounds[g] for g in step]  # ... its next op in ``codes`` ...
    upto = [0] * nact            # ... and, waiting to inject, its step's end
    stop = [g + n for g, n in zip(step, limit)]  # the step it stops at
    outstanding = [0] * nact     # posted this step, not yet completed
    waiting = [False] * nact     # parked at the end of its step
    times: List[Optional[float]] = [None] * nact
    busy = [False] * nact        # the actor's compute unit
    compq: List[Optional[deque]] = [None] * nact
    state = [0] * nmsg           # posts so far; 2 in flight; 3 delivered
    acquired = [0] * nmsg        # resources of held[i] in hand
    tries = [0] * nmsg           # attempts already lost
    t_start = [0.0] * nmsg
    in_use = [0] * len(capacity)
    parked: List[Optional[deque]] = [None] * len(capacity)
    rows: Optional[list] = [] if collect else None
    retransmissions = 0
    if doomed is None:
        doomed = [False] * nmsg

    def acquire(i: int) -> None:
        """Take ``held[i]`` in order; park FIFO on the first busy one.
        With all in hand, start the (lost or surviving) hold."""
        h = held[i]
        k = acquired[i]
        n = len(h)
        while k < n:
            r = h[k]
            if in_use[r] < capacity[r]:
                in_use[r] += 1
                k += 1
            else:
                acquired[i] = k
                q = parked[r]
                if q is None:
                    q = parked[r] = deque()
                q.append(i)
                return
        acquired[i] = 0
        if attempts is not None and tries[i] < attempts[i]:
            push(heap, (now + hold[i], seq(), _LOST_HOLD, i))
        else:
            t_start[i] = now
            push(heap, (now + final_hold[i], seq(), _HOLD, i))

    def release(i: int) -> None:
        """Give ``held[i]`` back in reverse order.  A unit with a parked
        message passes straight to the oldest, which goes on acquiring
        before the next unit is released."""
        h = held[i]
        k = len(h)
        while k:
            k -= 1
            q = parked[h[k]]
            if q:
                j = q.popleft()
                acquired[j] += 1
                acquire(j)
            else:
                in_use[h[k]] -= 1

    def advance(a: int, paid: bool) -> None:
        """Post actor ``a``'s ops from where it stopped, paying
        ``inject[a]`` before each (``paid``: the next one's just
        elapsed), until it must wait for the clock or for its step."""
        lim = stop[a]
        o = inject[a]
        s = step[a]
        j = opi[a]
        # Starting a transfer (acquire) never completes a post, so the
        # count stays in a local until the actor stops.
        out = outstanding[a]
        while s < lim:
            n = bounds[s + 1]
            while j < n:
                if o and not paid:
                    step[a] = s
                    opi[a] = j
                    upto[a] = n
                    outstanding[a] = out
                    push(heap, (now + o, seq(), _INJECT, a))
                    return
                paid = False
                i = codes[j] >> 1
                j += 1
                if not doomed[i]:
                    out += 1
                    if state[i]:
                        state[i] = 2
                        acquire(i)
                    else:
                        state[i] = 1
            if out:
                step[a] = s
                opi[a] = j
                outstanding[a] = out
                waiting[a] = True
                return
            s += 1  # ``j`` is already the next step's first op
        step[a] = s
        outstanding[a] = 0
        times[a] = now

    for a in range(nact):
        advance(a, False)

    track = obs.enabled
    peak = 0
    while heap:
        if track and len(heap) > peak:
            peak = len(heap)
        now, _, kind, x = pop(heap)
        # Completing a post and delivering a message are written out in
        # the branches below, in DESIGN.md §7's order: the send completes
        # after the release and before the α push; a delivery appends its
        # row, marks the message delivered, then completes the receive.
        # A completion that ends the step its actor waits on advances it.
        if kind == _INJECT:
            # advance(x, True) up to its next stop: post the op the
            # injection paid for, then pay for the next one of the step.
            j = opi[x]
            i = codes[j] >> 1
            j += 1
            opi[x] = j
            if not doomed[i]:
                outstanding[x] += 1
                if state[i]:
                    state[i] = 2
                    acquire(i)
                else:
                    state[i] = 1
            if j < upto[x]:
                push(heap, (now + inject[x], seq(), _INJECT, x))
            else:
                advance(x, False)
        elif kind == _HOLD:
            release(x)
            a = src[x]
            n = outstanding[a] - 1
            outstanding[a] = n
            if not n and waiting[a]:
                waiting[a] = False
                advance(a, False)
            push(heap, (now + alpha[x], seq(), _ALPHA, x))
        elif kind == _ALPHA:
            a = dst[x]
            g = gamma_t[x]
            if g < 0.0:
                if rows is not None:
                    rows.append((x, t_start[x], now))
                state[x] = 3
                n = outstanding[a] - 1
                outstanding[a] = n
                if not n and waiting[a]:
                    waiting[a] = False
                    advance(a, False)
            elif busy[a]:
                q = compq[a]
                if q is None:
                    q = compq[a] = deque()
                q.append(x)
            else:
                busy[a] = True
                push(heap, (now + g, seq(), _GAMMA, x))
        elif kind == _GAMMA:
            a = dst[x]
            q = compq[a]
            if q:  # the unit passes straight to the oldest parked receive
                j = q.popleft()
                push(heap, (now + gamma_t[j], seq(), _GAMMA, j))
            else:
                busy[a] = False
            if rows is not None:
                rows.append((x, t_start[x], now))
            state[x] = 3
            n = outstanding[a] - 1
            outstanding[a] = n
            if not n and waiting[a]:
                waiting[a] = False
                advance(a, False)
        elif kind == _LOST_HOLD:
            release(x)
            push(heap, (now + rto[x] * backoff ** tries[x], seq(), _RTO, x))
        else:  # _RTO
            retransmissions += 1
            tries[x] += 1
            acquire(x)

    live = nmsg - sum(doomed)
    nblocked = times.count(None) + live - state.count(3)
    if track:
        _count(obs, events=seq() - 1, peak=peak, blocked=nblocked,
               certified=False)
    if nblocked:
        blocked = [
            f"xfer{i} (in flight)" if state[i] == 2
            else f"xfer{i} ({state[i]} of 2 posts)"
            for i in range(nmsg)
            if state[i] != 3 and not doomed[i]
        ] + [
            f"rank{a} (step {step[a] - first[a]})"
            for a in range(nact) if times[a] is None
        ]
        shown = ", ".join(blocked[:16])
        if nblocked > 16:
            shown += f", ... ({nblocked - 16} more)"
        raise MachineError(
            f"simulation deadlock: {nblocked} process(es) still "
            f"blocked at t={now}: {shown}"
        )
    return now, times, retransmissions, rows


def _count(obs: Obs, *, events: int, peak: int, blocked: int,
           certified: bool) -> None:
    """One run's engine metrics (every run counts, certified or not)."""
    m = obs.metrics
    m.counter("repro_engine_runs_total").inc()
    if certified:
        m.counter("repro_engine_certified_total").inc()
    m.counter("repro_engine_events_total").inc(events)
    m.gauge("repro_engine_heap_depth_peak").set_max(peak)
    m.gauge("repro_engine_blocked_processes").set_max(blocked)


def flatten_held(held: Sequence[Tuple[int, ...]]) -> np.ndarray:
    """``held`` as one ``(2, K)`` int32 array: row 0 every held resource
    id, row 1 the message holding it, messages in order.

    >>> flatten_held([(0, 3), (), (1,)]).tolist()
    [[0, 3, 1], [0, 0, 2]]
    """
    lens = np.fromiter(map(len, held), dtype=np.int32, count=len(held))
    ids = np.fromiter(chain.from_iterable(held), dtype=np.int32,
                      count=int(lens.sum()))
    owner = np.repeat(np.arange(len(held), dtype=np.int32), lens)
    return np.stack((ids, owner))


def capacity_free(
    *,
    codes: Sequence[int],
    bounds: Sequence[int],
    first: Sequence[int],
    limit: Sequence[int],
    inject: Sequence[float],
    src: Sequence[int],
    dst: Sequence[int],
    held: Sequence[Tuple[int, ...]],
    capacity: Sequence[int],
    final_hold: Sequence[float],
    alpha: Sequence[float],
    gamma_t: Sequence[float],
    held_ids: Optional[np.ndarray] = None,
) -> Tuple[float, Optional[List[float]], bool]:
    """The loss-free table's timeline with every capacity removed, and
    whether the kernel would wait nowhere on it.

    The recurrence is the event loop's with no resource and no compute
    unit: a step starting at ``B`` posts op ``j`` at ``((B + o) + o)…``;
    a transfer starts at the later post, its send completes at ``start
    + final_hold``, it delivers at ``(start + final_hold) + alpha`` and
    a reducing receive completes at ``delivery + gamma_t``; a step ends
    at its latest completion; an actor's time is the end of its last
    non-empty step (``0.0`` with none) and the makespan the latest
    actor time.  These are the loop's own float additions, so whenever
    nothing waits its times *are* these.  Nothing waits when every
    resource ``r`` is held by at most ``capacity[r]`` transfers and
    every receiver by at most one reduction at any instant, intervals
    that merely touch counted as overlapping (the order of same-time
    events is never consulted) — that is ``certified``.  Each time is a
    lower bound on the loop's whether or not it certifies.

    Returns ``(makespan, times, certified)``, or ``(0.0, None, False)``
    when some actor never finishes (the loop raises the deadlock).
    """
    nact = len(first) - 1
    nmsg = len(src)
    posted: List[Optional[float]] = [None] * nmsg  # the first post's time
    owner = [0] * nmsg          # the actor that posted first
    start = [0.0] * nmsg
    sent = [0.0] * nmsg         # send completion
    reductions: List[Tuple[int, float, float]] = []  # (receiver, from, to)
    step = first[:-1]           # global step
    pending = [0] * nact        # ops of the current step not yet matched
    end = [0.0] * nact          # the current step's latest completion yet
    parked = [False] * nact
    times: List[Optional[float]] = [None] * nact
    work = list(range(nact - 1, -1, -1))
    while work:
        a = work.pop()
        lim = first[a] + limit[a]
        o = inject[a]
        s = step[a]
        t = 0.0
        if parked[a]:  # every op of step s has completed: it ends
            parked[a] = False
            t = end[a]
            s += 1
        j = bounds[s]  # the global op cursor runs straight through
        while s < lim:
            hi = bounds[s + 1]
            if j == hi:
                s += 1
                continue
            end[a] = e = 0.0
            out = 0  # first posts: ops that complete when matched
            while j < hi:
                c = codes[j]
                j += 1
                if o:
                    t = t + o
                i = c >> 1
                p = posted[i]
                if p is None:
                    posted[i] = t
                    owner[i] = a
                    out += 1
                    continue
                begin = p if p > t else t
                done = begin + final_hold[i]
                got = done + alpha[i]
                g = gamma_t[i]
                if g >= 0.0:
                    wire = got
                    got = wire + g
                    reductions.append((dst[i], wire, got))
                start[i] = begin
                sent[i] = done
                # Both ops complete now: this actor's at ``done``, the
                # first poster's at ``got`` — which may unpark it.
                f = owner[i]
                if c & 1:
                    done, got = got, done
                if done > e:
                    e = done
                if got > end[f]:
                    end[f] = got
                n = pending[f] - 1
                pending[f] = n
                if not n and parked[f]:
                    work.append(f)
            if end[a] > e:
                e = end[a]
            n = pending[a] + out  # less what this walk matched itself
            pending[a] = n
            if n:
                end[a] = e
                step[a] = s
                parked[a] = True
                break
            t = e
            s += 1
        else:
            times[a] = t
    if None in times:
        return 0.0, None, False
    makespan = max(times, default=0.0)

    # The certificate: per resource (compute units after the shared
    # ones), +1 at each interval's start and -1 at its end; starts sort
    # before ends at equal times, so touching intervals overlap.
    if held_ids is None:
        held_ids = flatten_held(held)
    res, msg = held_ids[0], held_ids[1]
    lo = np.asarray(start)[msg]
    hi = np.asarray(sent)[msg]
    if reductions:
        at, begins, ends = zip(*reductions)
        res = np.concatenate((res, len(capacity) + np.asarray(at)))
        lo = np.concatenate((lo, begins))
        hi = np.concatenate((hi, ends))
    cap = np.concatenate((np.asarray(capacity, dtype=np.int64),
                          np.ones(nact, dtype=np.int64)))
    # Only a resource with more intervals than units can overflow.
    crowded = np.bincount(res, minlength=len(cap)) > cap
    keep = crowded[res]
    if not keep.any():
        return makespan, times, True
    res, lo, hi = res[keep], lo[keep], hi[keep]
    n = len(res)
    res = np.concatenate((res, res))
    order = np.lexsort((np.concatenate((lo, hi)), res))
    level = np.cumsum(np.where(order < n, 1, -1))
    return makespan, times, bool((level <= cap[res[order]]).all())
