"""The tuning service: asyncio HTTP endpoints over the tuner + stores.

:class:`TuningService` is the long-running daemon the ROADMAP's
"schedule-tuning-as-a-service" item asks for — the balsam-style shape
where many client processes share one tuning database instead of each
re-running ``repro-tune``.  Pure stdlib: :func:`asyncio.start_server`
plus a hand-rolled HTTP/1.1 exchange, so the service adds no dependency
weight.  Connections are persistent: one connection serves request after
request until the client closes it, sends ``Connection: close`` (or
speaks HTTP/1.0), or idles past ``_READ_TIMEOUT_S`` between requests —
an idle connection is closed quietly, with no reply.

The endpoint surface (DESIGN.md §17 walks each one):

``GET /``
    Service descriptor: machine, grid, live counters (``sweeps_run``,
    ``coalesced``, ``inflight``) — the smoke driver polls ``inflight``
    to make its coalescing assertions race-free.
``GET /select?collective=&p=&nbytes=``
    The tuned ``(algorithm, k)`` for a query point, answered from the
    service's selection table — warm-started at boot from a committed
    selection-config grid, so the first query is already fast.
``GET /schedule?...``
    Content-addressed compiled artifact: by build parameters or by
    ``fingerprint=`` (source-schedule fingerprint or the 16-hex prefix
    used in store keys).  Served through the same store-backed
    :class:`~repro.core.cache.ScheduleCache` /
    :class:`~repro.compile.cache.CompiledCache` pair the sweep engine
    uses, so a disk store populated by one feeds the other.
``POST /tune``
    Run (or join) an authoritative sweep for one collective.  Requests
    are **coalesced single-flight**: concurrent tunes that hash to the
    same :func:`~repro.bench.sweep.sweep_fingerprint` share one sweep —
    the first becomes the leader and runs it in an executor thread; the
    rest await the leader's future and report ``outcome="coalesced"``.
``GET /metrics``
    The :mod:`repro.obs` Prometheus exposition, including the service's
    own ``repro_server_requests_total`` and
    ``repro_server_connections_total`` counters (their ratio is the
    requests each connection carried).
``GET /config``
    The exported MPICH-style selection-config document
    (:class:`~repro.selection.table.SelectionConfig`), regenerated from
    the service's current merged sweeps after every ``/tune``.

Errors travel as JSON ``{"error": <class name>, "message": ...}`` so
:class:`~repro.server.client.TuningClient` can re-raise
:class:`~repro.errors.SelectionError` ("no rule covers this point")
distinctly from :class:`~repro.errors.ServerError` ("the service is
broken or misused").  Hostile requests get the same structured answer,
never a hang: a head over ``_MAX_HEAD_BYTES`` is a ``431``, a body over
``_MAX_BODY_BYTES`` a ``413``, and a head or body not delivered within
``_READ_TIMEOUT_S`` a ``408``.  Bodies are framed by ``Content-Length``
only: any ``Transfer-Encoding`` is a ``501`` and repeated
``Content-Length`` headers that disagree are a ``400``.  Those replies,
and a ``400`` for a request that cannot be parsed, close the connection.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from ..compile.cache import (
    CompiledCache,
    compiled_store_key,
    open_compiled_store,
)
from ..core.cache import ScheduleCache
from ..core.registry import COLLECTIVES, algorithms_for, info
from ..core.schedule import Schedule
from ..core.serialize import dumps_blob
from ..errors import ReproError, SelectionError, ServerError
from ..obs import Obs, get_obs
from ..selection import SelectionConfig, config_from_sweeps
from ..selection.tuner import (
    DEFAULT_COLLECTIVES,
    SweepResult,
    sweep_collective,
    sweep_points,
)
from ..store.schedules import open_schedule_store

__all__ = ["TuningService", "ServerHandle", "serve_background"]

#: Error classes a response may name; the client re-raises by this name
#: so selection misses stay :class:`SelectionError` across the wire.
_WIRE_ERRORS = {"SelectionError": SelectionError, "ServerError": ServerError}

#: Largest request body read (``POST /tune`` bodies are under 1 kB); a
#: larger ``Content-Length`` is a ``413`` before any body byte is
#: awaited, so a client cannot announce 2⁴⁰ bytes and park a connection.
_MAX_BODY_BYTES = 1 << 20

#: Largest request head (request line + headers) read; a longer one is
#: a ``431``.
_MAX_HEAD_BYTES = 1 << 16

#: Seconds a connection may sit idle before its next request's first
#: byte (then it closes quietly), and seconds from that byte to the end
#: of the request's head and body; a stalled head or a body shorter than
#: its ``Content-Length`` is then a ``408`` and the connection closes, so
#: no request can hang it.
_READ_TIMEOUT_S = 10.0

#: (collective, algorithm, p, k, root) — what a fingerprint resolves to.
_ScheduleParams = Tuple[str, str, int, Optional[int], int]


class _HttpReply(Exception):
    """Internal control flow: an endpoint's non-200 JSON response."""

    def __init__(self, status: int, error: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.error = error
        self.message = message


class TuningService:
    """One tuning daemon: selection table + stores behind HTTP.

    Construction is synchronous and does the expensive part up front:
    it sweeps every collective over the size grid (warm-started from
    ``grid`` — a :class:`~repro.selection.table.SelectionConfig` or a
    path to one — so a committed artifact makes boot nearly free) and
    distills the selection table.  :meth:`start` then binds the socket;
    requests mutate the table only through ``/tune``'s merge.

    ``store`` (a directory path) backs schedules and compiled artifacts
    with the PR 6 disk tiers — the content-addressed ``/schedule``
    endpoint then survives restarts, and the fingerprint index is
    rebuilt from the store's ``compiled/…`` keys at boot.  Without it
    the service runs on in-process LRUs.

    ``obs`` scopes the metrics registry ``/metrics`` exposes (default:
    the process-global :data:`repro.obs.OBS`).  The service's own
    request counters are recorded unconditionally — a tuning daemon's
    traffic should be visible without globally enabling instrumentation.
    """

    def __init__(
        self,
        machine,
        sizes: Sequence[int],
        *,
        collectives: Sequence[str] = DEFAULT_COLLECTIVES,
        store=None,
        grid=None,
        jobs: int = 0,
        check: bool = False,
        obs: Optional[Obs] = None,
        fsync: bool = False,
    ) -> None:
        from ..simnet.machines import resolve as resolve_machine

        self.machine = resolve_machine(machine)
        self.sizes: List[int] = sorted(set(int(s) for s in sizes))
        if not self.sizes:
            raise ServerError("a tuning service needs a non-empty size grid")
        self.collectives: Tuple[str, ...] = tuple(collectives)
        self.jobs = jobs
        self.check = check
        self.obs = get_obs(obs)
        self.store_root = str(store) if store is not None else None
        if store is not None:
            self.schedules = open_schedule_store(store, fsync=fsync)
            self.compiled_cache = open_compiled_store(store, fsync=fsync)
        else:
            self.schedules = ScheduleCache()
            self.compiled_cache = CompiledCache()
        # fingerprint (full, and the 16-hex store-key prefix) → params
        self._fingerprints: Dict[str, _ScheduleParams] = {}
        self._index_store()
        self.warm_started = False
        priors = None
        if grid is not None:
            cfg = (
                grid if isinstance(grid, SelectionConfig)
                else SelectionConfig.load(grid)
            )
            priors = cfg.sweep_priors()
            self.warm_started = True
        # The boot sweep: every collective over the grid, points covered
        # by the committed artifact replayed instead of simulated.
        self._sweeps: Dict[str, SweepResult] = {}
        for collective in self.collectives:
            self._sweeps[collective] = sweep_collective(
                collective, self.machine, self.sizes,
                jobs=self.jobs, check=self.check, priors=priors,
            )
        self._rebuild()
        self.sweeps_run = 0
        self.coalesced = 0
        self._inflight: Dict[str, "asyncio.Future[SweepResult]"] = {}
        self._sweep_lock = threading.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        # Open connections: every handler task, and the writers of those
        # waiting for a request (what stop() may close at once).
        self._handlers: Set["asyncio.Task[None]"] = set()
        self._idle: Set[asyncio.StreamWriter] = set()
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # State assembly
    # ------------------------------------------------------------------

    def _rebuild(self) -> None:
        """Re-distill config + table from the current merged sweeps."""
        self.config = config_from_sweeps(
            self.machine, self.sizes, self._sweeps
        )
        self.table = self.config.table

    def _index_store(self) -> None:
        """Rebuild the fingerprint → params index from ``compiled/…`` keys.

        Store keys carry the 16-hex source-fingerprint prefix as their
        last segment (:func:`repro.compile.cache.compiled_store_key`),
        which is exactly enough to answer ``/schedule?fingerprint=``
        after a restart without loading a single artifact.
        """
        if self.schedules.store is None:
            return
        aliases = _registry_aliases()
        for _path, key in self.schedules.store.keys_on_disk():
            params = _params_from_key(key, aliases) if key else None
            if params is not None:
                self._fingerprints[key.rsplit("/", 1)[1]] = params

    def _register(self, schedule, params: _ScheduleParams) -> str:
        """Index a served schedule under its full and prefix fingerprints.

        ``params`` are the registry parameters that were *asked* — what
        rebuilds this schedule — not the names it reports of itself
        (builders alias: ``allgather/bruck`` calls itself
        ``bruck_kport``, k-ring at ``k = 1`` calls itself ``ring``).
        """
        fp = schedule.fingerprint()
        self._fingerprints[fp] = params
        self._fingerprints[fp[:16]] = params
        return fp

    # ------------------------------------------------------------------
    # Endpoints (each returns the JSON-ready response payload)
    # ------------------------------------------------------------------

    def describe(self) -> Dict:
        """The ``GET /`` service descriptor (also the CLI's boot banner)."""
        return {
            "service": "repro-tuning-service",
            "machine": self.machine.name,
            "nranks": self.machine.nranks,
            "sizes": self.sizes,
            "collectives": list(self.collectives),
            "jobs": self.jobs,
            "store": self.store_root,
            "warm_started": self.warm_started,
            "sweeps_run": self.sweeps_run,
            "coalesced": self.coalesced,
            "inflight": len(self._inflight),
        }

    def _ep_select(self, query: Dict[str, str]) -> Dict:
        p = int(query.get("p", self.machine.nranks))
        choice = self.table.select(
            _require(query, "collective"), p, int(_require(query, "nbytes"))
        )
        return {
            "collective": query["collective"],
            "nranks": p,
            "nbytes": int(query["nbytes"]),
            "algorithm": choice.algorithm,
            "k": choice.k,
        }

    def _ep_schedule(self, query: Dict[str, str]) -> Dict:
        schedule, params, payload = self._schedule_reply(query)
        self._register(schedule, params)
        return payload

    def _schedule_reply(
        self, query: Dict[str, str]
    ) -> Tuple[Schedule, _ScheduleParams, Dict]:
        """Look up, build and compile what ``GET /schedule`` asks for:
        the schedule, the registry parameters that rebuild it, and the
        reply.  Touches only the locked caches, so it runs off the
        event loop; :meth:`_register` stays on it."""
        if "fingerprint" in query:
            fp = query["fingerprint"]
            params = self._fingerprints.get(fp) or self._fingerprints.get(
                fp[:16]
            )
            if params is None:
                raise _HttpReply(
                    404, "ServerError",
                    f"no schedule is indexed under fingerprint {fp!r}",
                )
            collective, algorithm, p, k, root = params
        else:
            collective = _require(query, "collective")
            algorithm = _require(query, "algorithm")
            p = int(query.get("p", self.machine.nranks))
            k = int(query["k"]) if query.get("k") not in (None, "None") \
                else None
            root = int(query.get("root", 0))
        # Fixed-radix schedules record their structural radix (e.g.
        # recursive doubling's k=2) but their builders refuse a k
        # argument — normalize so a fingerprint indexed from a built
        # schedule resolves back through the same builder.
        if k is not None and not info(collective, algorithm).takes_k:
            k = None
        schedule, _hit = self.schedules.get_or_build(
            collective, algorithm, p, k=k, root=root
        )
        fp = schedule.fingerprint()
        asked = query.get("fingerprint")
        if asked is not None and asked not in (fp, fp[:16]):
            # The index resolved to parameters that build another
            # schedule (a store written before a builder changed): say
            # so rather than serve it.
            raise _HttpReply(
                404, "ServerError",
                f"fingerprint {asked!r} is indexed as "
                f"{collective}/{algorithm} p={p} k={k} root={root}, which "
                f"builds {fp[:16]}… — not serving a different schedule",
            )
        compiled, _chit = self.compiled_cache.get_or_compile(schedule)
        return schedule, (collective, algorithm, p, k, root), {
            "collective": schedule.collective,
            "algorithm": schedule.algorithm,
            "p": schedule.nranks,
            "k": schedule.k,
            "root": schedule.root or 0,
            "source_fingerprint": fp,
            "store_key": compiled_store_key(schedule),
            "schedule_pickle": dumps_blob(schedule),
            "compiled_pickle": dumps_blob(compiled),
        }

    async def _ep_tune(self, body: Dict) -> Dict:
        collective = body.get("collective")
        if not collective:
            raise _HttpReply(
                400, "ServerError", 'POST /tune needs {"collective": ...}'
            )
        points = sweep_points(collective, self.machine, self.sizes)
        from ..bench.sweep import sweep_fingerprint

        fp = sweep_fingerprint(points, self.machine)
        fut = self._inflight.get(fp)
        if fut is not None:
            self.coalesced += 1
            sweep = await fut
            outcome = "coalesced"
        else:
            loop = asyncio.get_running_loop()
            fut = loop.create_future()
            self._inflight[fp] = fut
            try:
                sweep = await loop.run_in_executor(
                    None, self._run_sweep, collective
                )
            except BaseException as exc:
                fut.set_exception(exc)
                fut.exception()  # a leaderless error must not warn
                raise
            else:
                fut.set_result(sweep)
            finally:
                self._inflight.pop(fp, None)
            self.sweeps_run += 1
            self._sweeps[collective] = sweep
            self._rebuild()
            outcome = "swept"
        winners = {
            str(n): {
                "algorithm": sweep.best(n).choice.algorithm,
                "k": sweep.best(n).choice.k,
            }
            for n in self.sizes
        }
        return {
            "collective": collective,
            "fingerprint": fp,
            "outcome": outcome,
            "winners": winners,
        }

    def _run_sweep(self, collective: str) -> SweepResult:
        """The leader's authoritative sweep (runs in an executor thread).

        Deliberately *without* priors: ``/tune`` is the "re-measure now"
        verb, so it simulates every point fresh and its result replaces
        the collective's boot sweep.  Serialized by a lock — the single
        flight already ensures identical queries share one sweep; the
        lock keeps *different* collectives from racing the process-wide
        caches underneath.
        """
        with self._sweep_lock:
            return sweep_collective(
                collective, self.machine, self.sizes,
                jobs=self.jobs, check=self.check,
            )

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        """One connection: serve its requests in turn until it closes."""
        self.obs.metrics.counter("repro_server_connections_total").inc()
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while await self._exchange(reader, writer):
                pass
        except ConnectionError:
            pass  # client went away mid-reply; nothing to salvage
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _exchange(self, reader, writer) -> bool:
        """Read one request and answer it; whether to read another.

        The connection is kept unless the client asked to close it, the
        request could not be read in full (a ``400``, ``408``, ``413``,
        ``431`` or ``501`` closes it), or the service is stopping.  A
        connection that closes or idles out before a request's first byte
        gets no reply at all.
        """
        status, ctype, payload, endpoint = 500, "application/json", b"", "?"
        keep_alive = False
        try:
            self._idle.add(writer)
            try:
                request = await _read_request(reader)
            finally:
                self._idle.discard(writer)
            if request is None:
                return False
            method, target, body, keep_alive = request
            url = urlsplit(target)
            endpoint = url.path
            query = {
                key: values[-1]
                for key, values in parse_qs(url.query).items()
            }
            status, ctype, payload = await self._dispatch(
                method, url.path, query, body
            )
        except _HttpReply as reply:
            status = reply.status
            payload = _error_body(reply.error, reply.message)
        except SelectionError as exc:
            status, payload = 400, _error_body("SelectionError", str(exc))
        except ReproError as exc:
            status, payload = 400, _error_body(type(exc).__name__, str(exc))
        except (asyncio.IncompleteReadError, ConnectionError, ValueError) \
                as exc:
            status = 400
            payload = _error_body("ServerError", f"malformed request: {exc}")
        except Exception as exc:  # noqa: BLE001 — a request must not
            # take the daemon down; the failure travels to the client.
            status = 500
            payload = _error_body("ServerError", f"internal error: {exc}")
        if writer.is_closing():
            return False  # stop() closed it while the request was read
        self.obs.metrics.counter(
            "repro_server_requests_total",
            endpoint=endpoint, status=str(status),
        ).inc()
        keep_alive = keep_alive and self._server.is_serving()
        writer.write(_response(status, ctype, payload, keep_alive))
        await writer.drain()
        return keep_alive

    async def _dispatch(
        self, method: str, path: str, query: Dict[str, str], body: bytes
    ) -> Tuple[int, str, bytes]:
        """Route one parsed request to its endpoint."""
        if path == "/tune":
            if method != "POST":
                raise _HttpReply(405, "ServerError", "/tune is POST-only")
            try:
                parsed = json.loads(body.decode("utf-8") or "{}")
            except json.JSONDecodeError as exc:
                raise _HttpReply(
                    400, "ServerError", f"malformed /tune body: {exc}"
                ) from exc
            return 200, "application/json", _json(await self._ep_tune(parsed))
        if method != "GET":
            raise _HttpReply(
                405, "ServerError", f"{method} is not supported on {path}"
            )
        if path == "/":
            return 200, "application/json", _json(self.describe())
        if path == "/select":
            return 200, "application/json", _json(self._ep_select(query))
        if path == "/schedule":
            # A cold build and compile can take seconds: run them (and
            # the encoding) on a worker thread, as /tune does, so the
            # loop keeps answering /select meanwhile.
            def reply() -> Tuple[Schedule, _ScheduleParams, bytes]:
                schedule, params, payload = self._schedule_reply(query)
                return schedule, params, _json(payload)

            schedule, params, encoded = await asyncio.get_running_loop(
            ).run_in_executor(None, reply)
            self._register(schedule, params)
            return 200, "application/json", encoded
        if path == "/metrics":
            text = self.obs.prometheus()
            return 200, "text/plain; version=0.0.4", text.encode("utf-8")
        if path == "/config":
            return (
                200, "application/json",
                self.config.to_json().encode("utf-8"),
            )
        raise _HttpReply(404, "ServerError", f"no such endpoint: {path}")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def url(self) -> str:
        """The service's base URL (valid after :meth:`start`)."""
        if self.port is None:
            raise ServerError("the service has not been started")
        return f"http://{self.host}:{self.port}"

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "TuningService":
        """Bind the listening socket (``port=0`` picks an ephemeral one)."""
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=_MAX_HEAD_BYTES
        )
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        return self

    async def stop(self) -> None:
        """Close the listening socket and drain open connections.

        Idle connections close at once; one mid-request answers it and
        then closes.  The idle ones must go first: from Python 3.12 on,
        ``wait_closed`` waits for every open connection.
        """
        if self._server is not None:
            self._server.close()
            for writer in list(self._idle):
                writer.close()
            await asyncio.gather(*self._handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None


class ServerHandle:
    """A background tuning service: thread + loop + ready-to-query URL.

    Context-manager friendly (the README quickstart runs inside a
    ``with`` block); :meth:`close` is idempotent.
    """

    def __init__(
        self,
        service: TuningService,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.service = service
        self._thread = thread
        self._loop = loop

    @property
    def url(self) -> str:
        """The served base URL, e.g. ``http://127.0.0.1:43817``."""
        return self.service.url

    def close(self) -> None:
        """Stop the loop, join the thread, release the socket."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_background(machine, sizes: Sequence[int], **kwargs) -> ServerHandle:
    """Boot a :class:`TuningService` on a daemon thread; return its handle.

    The in-process path tests and executable docs use: construction
    (and therefore the boot sweep) happens synchronously in the caller,
    then the socket binds to an ephemeral port on a fresh event loop in
    a background thread — by the time this returns, ``handle.url``
    answers requests.  ``kwargs`` pass through to :class:`TuningService`.
    """
    service = TuningService(machine, sizes, **kwargs)
    ready = threading.Event()
    loops: List[asyncio.AbstractEventLoop] = []

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop.run_until_complete(service.start())
        loops.append(loop)
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(service.stop())
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()

    thread = threading.Thread(
        target=run, name="repro-serve", daemon=True
    )
    thread.start()
    ready.wait()
    return ServerHandle(service, thread, loops[0])


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------


#: (collective, reported name) → [(registry name, when(p, k)), …].
_Aliases = Dict[Tuple[str, str], List[Tuple[str, Callable[[int, int], bool]]]]


def _registry_aliases() -> _Aliases:
    """The registry's declared aliases
    (:attr:`~repro.core.registry.AlgorithmInfo.alias`), inverted."""
    table: _Aliases = {}
    for collective in COLLECTIVES:
        for name in algorithms_for(collective):
            alias = info(collective, name).alias
            if alias is not None:
                table.setdefault((collective, alias[0]), []).append(
                    (name, alias[1])
                )
    return table


def _params_from_key(key: str, aliases: _Aliases) -> Optional[_ScheduleParams]:
    """The registry parameters that rebuild the schedule a
    ``compiled/…`` store key names; None for any other key.

    A key carries the names its schedule reports of itself, and builders
    relabel at degenerate radices (``allgather/bruck`` at k ≥ 3 reports
    ``bruck_kport``, k-ring at k ∈ {1, p} reports ``ring``): ``aliases``
    maps such a name back to the entry that built it.
    """
    parts = key.split("/")
    if len(parts) != 7 or parts[0] != "compiled":
        return None
    collective, reported = parts[1], parts[2]
    try:
        p = int(parts[3][len("p="):])
        k = None if parts[4] == "k=None" else int(parts[4][len("k="):])
        # Non-rooted schedules record root=None in the key; their
        # builders take root=0.
        root = 0 if parts[5] == "root=None" else int(parts[5][len("root="):])
    except ValueError:
        return None
    algorithm = reported
    if k is not None:
        for name, when in aliases.get((collective, reported), ()):
            if when(p, k):
                algorithm = name
                break
    return collective, algorithm, p, k, root


def _require(query: Dict[str, str], name: str) -> str:
    """A mandatory query parameter, or a 400 naming what's missing."""
    value = query.get(name)
    if value is None:
        raise _HttpReply(
            400, "ServerError", f"missing query parameter {name!r}"
        )
    return value


def _json(payload: Dict) -> bytes:
    # No indent: only compact output goes through the C encoder.
    return json.dumps(payload).encode("utf-8")


def _error_body(error: str, message: str) -> bytes:
    return _json({"error": error, "message": message})


def _response(
    status: int, ctype: str, payload: bytes, keep_alive: bool
) -> bytes:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               405: "Method Not Allowed", 408: "Request Timeout",
               413: "Payload Too Large",
               431: "Request Header Fields Too Large",
               500: "Internal Server Error", 501: "Not Implemented"}
    head = (
        f"HTTP/1.1 {status} {reasons.get(status, 'Error')}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    )
    return head.encode("latin-1") + payload


async def _read_request(
    reader,
) -> Optional[Tuple[str, str, bytes, bool]]:
    """``(method, target, body, keep_alive)`` of the connection's next
    request, or ``None`` when the client closes the connection or sends
    no byte of a request within ``_READ_TIMEOUT_S``.

    The deadline restarts at the request's first byte: its head and body
    then have ``_READ_TIMEOUT_S`` more, or the answer is a ``408``.  A
    timer cancels this task when a deadline passes — not
    :func:`asyncio.wait_for`, whose extra task per request shows on the
    served ``/select`` path.
    """
    loop = asyncio.get_running_loop()
    task = asyncio.current_task()
    expired: List[bool] = []

    def expire() -> None:
        expired.append(True)
        task.cancel()

    timer = loop.call_later(_READ_TIMEOUT_S, expire)
    try:
        try:
            first = await reader.readexactly(1)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None  # closed between requests
        except asyncio.CancelledError:
            if not expired:
                raise
            return None  # idle past the deadline: close, no reply
        timer.cancel()
        timer = loop.call_later(_READ_TIMEOUT_S, expire)
        method, target, version, headers = await _read_head(reader, first)
        if "transfer-encoding" in headers:
            raise _HttpReply(
                501, "NotImplemented",
                f"Transfer-Encoding {headers['transfer-encoding']!r} is not "
                f"supported: send a Content-Length",
            )
        length = int(headers.get("content-length", "0"))
        if length < 0:
            raise _HttpReply(
                400, "ServerError",
                f"malformed request: negative Content-Length {length}",
            )
        if length > _MAX_BODY_BYTES:
            raise _HttpReply(
                413, "PayloadTooLarge",
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
    except asyncio.CancelledError:
        if not expired:
            raise
        raise _HttpReply(
            408, "RequestTimeout",
            f"request not received within {_READ_TIMEOUT_S:g} s",
        ) from None
    finally:
        timer.cancel()
    keep_alive = version == "HTTP/1.1" and "close" not in headers.get(
        "connection", ""
    ).lower()
    return method, target, body, keep_alive


async def _read_head(
    reader, first: bytes
) -> Tuple[str, str, str, Dict[str, str]]:
    """Parse the request line + headers of one HTTP/1.1 request whose
    ``first`` byte is already read: ``(method, target, version,
    headers)``, header names lower-cased."""
    try:
        raw = first + await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise _HttpReply(
            431, "HeaderTooLarge",
            f"request head exceeds the {_MAX_HEAD_BYTES}-byte limit",
        ) from None
    lines = raw.decode("latin-1").split("\r\n")
    try:
        method, target, version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise _HttpReply(
            400, "ServerError", f"malformed request line: {lines[0]!r}"
        ) from exc
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if ":" in line:
            name, _sep, value = line.partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise _HttpReply(
                    400, "ServerError",
                    f"malformed request: conflicting Content-Length "
                    f"headers {headers[name]!r} and {value!r}",
                )
            headers[name] = value
    return method, target, version, headers
