"""The discrete-event kernel: one flat event loop over message tables.

Everything the simulator models is a constant fixed before the loop
starts — which messages exist, who posts them in which step, which
resources each one holds, what every phase costs, how many attempts are
lost, which messages never arrive.  So the kernel owns no objects: a
*message* is a row index into flat per-message columns, a *resource* is
an index into ``in_use[]`` / ``capacity[]`` / a FIFO deque of parked
message ids, an *actor* (a rank, or a rank-class representative) is four
integers ``(step, op, outstanding, waiting)``, and a heap record is a
``(time, seq, kind, id)`` tuple of plain numbers dispatched by one
``if``/``elif`` over six kinds.  Two table builders feed it:
:func:`repro.simnet.simulate.simulate` (one actor per rank) and
:func:`repro.simnet.collapsed.simulate_collapsed` (one per class).

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
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import List, Optional, Sequence, Tuple

from ..errors import MachineError
from ..obs import Obs

__all__ = ["run"]

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
    ops: Sequence[Sequence[Sequence[int]]],
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
    obs: Obs,
) -> Tuple[float, List[float], int, Optional[List[Tuple[int, float, float]]]]:
    """Run one simulation to completion.

    Per actor: ``ops[a][s]`` are step ``s``'s op codes ``msg << 1 |
    is_recv`` in program order, ``limit[a]`` the number of steps it posts
    and ``inject[a]`` what each post costs it.  Per message: the actors
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
    """
    nact = len(ops)
    nmsg = len(src)
    now = 0.0
    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = count(1).__next__

    step = [0] * nact            # actor: current step ...
    opi = [0] * nact             # ... and next op inside it
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
        steps = ops[a]
        lim = limit[a]
        o = inject[a]
        s = step[a]
        j = opi[a]
        # Starting a transfer (acquire) never completes a post, so the
        # count stays in a local until the actor stops.
        out = outstanding[a]
        while s < lim:
            codes = steps[s]
            n = len(codes)
            while j < n:
                if o and not paid:
                    step[a] = s
                    opi[a] = j
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
            s += 1
            j = 0
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
            codes = ops[x][step[x]]
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
            if j < len(codes):
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
        m = obs.metrics
        m.counter("repro_engine_runs_total").inc()
        m.counter("repro_engine_events_total").inc(seq() - 1)
        m.gauge("repro_engine_heap_depth_peak").set_max(peak)
        m.gauge("repro_engine_blocked_processes").set_max(nblocked)
    if nblocked:
        blocked = [
            f"xfer{i} (in flight)" if state[i] == 2
            else f"xfer{i} ({state[i]} of 2 posts)"
            for i in range(nmsg)
            if state[i] != 3 and not doomed[i]
        ] + [
            f"rank{a} (step {step[a]})"
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
