"""Stdlib client for the tuning service (`http.client`, no dependencies).

:class:`TuningClient` is the blocking counterpart of
:class:`~repro.server.app.TuningService`: one method per endpoint,
returning the same in-process types the library uses everywhere else —
``select`` gives a :class:`~repro.selection.table.Choice`, ``config``
a :class:`~repro.selection.table.SelectionConfig`, ``compiled_schedule``
the decoded-and-reverified
:class:`~repro.compile.program.CompiledSchedule`.  It is what the
tests, the smoke driver, and ``execute(..., select="http://...")``
speak through.

Error fidelity across the wire: the server encodes failures as
``{"error": <class name>, "message": ...}`` and the client re-raises
:class:`~repro.errors.SelectionError` by name — so "no rule covers this
point" stays catchable as a selection miss on the client side, while
transport problems, malformed responses, and every other service
failure surface as :class:`~repro.errors.ServerError`.

Connections persist: each thread that calls a client keeps one HTTP/1.1
connection to the service and sends every request on it.  The service
may close a connection that idled past its read deadline; a request
whose *reused* connection fails before any status line arrives is sent
once more on a fresh connection.  That can repeat a ``POST /tune``,
which single-flight coalescing makes harmless: the repeat joins or
re-runs the same sweep.
"""

from __future__ import annotations

import http.client
import json
import threading
from pathlib import Path
from typing import Dict, Optional, Union

from ..compile.program import CompiledSchedule
from ..core.schedule import Schedule
from ..core.serialize import loads_blob
from ..errors import SelectionError, ServerError
from ..selection import Choice, SelectionConfig

__all__ = ["TuningClient"]


#: How a reused connection fails when the service closed it between
#: requests: the request is then retried once on a fresh connection.
_STALE_CONNECTION = (
    http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError
)


class TuningClient:
    """A blocking HTTP client bound to one tuning-service base URL.

    ``timeout`` bounds every request (seconds); a server that cannot be
    reached, times out, or answers with something unparseable raises
    :class:`~repro.errors.ServerError`.  One client may be shared by
    threads: each keeps its own connection.
    """

    def __init__(self, url: str, *, timeout: float = 30.0) -> None:
        if not url.startswith(("http://", "https://")):
            raise ServerError(
                f"tuning-service URL must be http(s)://..., got {url!r}"
            )
        self.url = url.rstrip("/")
        self.timeout = timeout
        scheme, _, rest = self.url.partition("://")
        self._connection_class = (
            http.client.HTTPSConnection if scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc, slash, path = rest.partition("/")
        self._base = slash + path
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (opened on first use)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connection_class(self._netloc, timeout=self.timeout)
            self._local.conn = conn
        return conn

    def _request(
        self, path: str, *, body: Optional[Dict] = None
    ) -> bytes:
        """One exchange; re-raises wire errors under their real class."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        method = "POST" if data is not None else "GET"
        headers = {"Content-Type": "application/json"} if data else {}
        conn = self._connection()
        try:
            try:
                reused = conn.sock is not None
                conn.request(method, self._base + path, data, headers)
                resp = conn.getresponse()
            except _STALE_CONNECTION:
                if not reused:
                    raise
                conn.close()
                conn.request(method, self._base + path, data, headers)
                resp = conn.getresponse()
            payload = resp.read()
        except (http.client.HTTPException, OSError) as exc:
            conn.close()
            raise ServerError(
                f"cannot reach tuning service at {self.url}: {exc}"
            ) from exc
        if not 200 <= resp.status < 300:
            raise _wire_error(resp.status, payload)
        return payload

    def _request_json(
        self, path: str, *, body: Optional[Dict] = None
    ) -> Dict:
        raw = self._request(path, body=body)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServerError(
                f"tuning service returned malformed JSON from {path}: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise ServerError(
                f"tuning service returned a non-object from {path}"
            )
        return payload

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def info(self) -> Dict:
        """``GET /`` — the service descriptor with its live counters."""
        return self._request_json("/")

    def select(self, collective: str, nranks: int, nbytes: int) -> Choice:
        """``GET /select`` — the tuned choice for one query point."""
        payload = self._request_json(
            f"/select?collective={collective}&p={nranks}&nbytes={nbytes}"
        )
        return Choice(payload["algorithm"], payload["k"])

    def schedule(
        self,
        collective: Optional[str] = None,
        algorithm: Optional[str] = None,
        *,
        p: Optional[int] = None,
        k: Optional[int] = None,
        root: int = 0,
        fingerprint: Optional[str] = None,
    ) -> Dict:
        """``GET /schedule`` — the raw artifact payload.

        Query by build parameters (``collective`` + ``algorithm``, with
        ``p``/``k``/``root`` optional) or content-addressed by
        ``fingerprint`` (full source fingerprint or its 16-hex store
        prefix).  The payload carries both fingerprints and the two
        blobs; :meth:`compiled_schedule` decodes and reverifies them.
        """
        if fingerprint is not None:
            query = f"/schedule?fingerprint={fingerprint}"
        else:
            if collective is None or algorithm is None:
                raise ServerError(
                    "schedule() needs collective+algorithm or fingerprint="
                )
            query = f"/schedule?collective={collective}&algorithm={algorithm}"
            if p is not None:
                query += f"&p={p}"
            if k is not None:
                query += f"&k={k}"
            query += f"&root={root}"
        return self._request_json(query)

    def compiled_schedule(self, **kwargs):
        """The decoded ``(schedule, compiled)`` pair for one query.

        Same query surface as :meth:`schedule`; the compiled program is
        re-verified against its source schedule after decoding, so a
        corrupt wire payload can never execute
        (:class:`~repro.errors.CompileError` on mismatch — the same
        ladder the disk store applies).
        """
        payload = self.schedule(**kwargs)
        try:
            schedule = loads_blob(payload["schedule_pickle"], Schedule)
            compiled = loads_blob(
                payload["compiled_pickle"], CompiledSchedule
            )
        except Exception as exc:  # noqa: BLE001 — decode failure is a
            # service-contract violation, whatever the codec says.
            raise ServerError(
                f"served schedule payload failed to decode: {exc}"
            ) from exc
        compiled.verify(schedule)
        return schedule, compiled

    def tune(self, collective: str) -> Dict:
        """``POST /tune`` — run (or join) the collective's sweep.

        The response's ``outcome`` says which: ``"swept"`` for the
        single-flight leader, ``"coalesced"`` for requests that shared
        the leader's sweep.  ``winners`` maps each grid size to its
        tuned ``{algorithm, k}``.
        """
        return self._request_json("/tune", body={"collective": collective})

    def metrics(self) -> str:
        """``GET /metrics`` — the Prometheus exposition text."""
        return self._request("/metrics").decode("utf-8")

    def config_text(self) -> str:
        """``GET /config`` — the raw selection-config JSON document."""
        return self._request("/config").decode("utf-8")

    def config(self) -> SelectionConfig:
        """``GET /config`` parsed into a :class:`SelectionConfig`."""
        return SelectionConfig.from_json(self.config_text())

    def save_config(self, path: Union[str, Path]) -> Path:
        """Export ``GET /config`` to a file (the CI artifact step)."""
        return self.config().save(path)


def _wire_error(status: int, body: bytes) -> Exception:
    """Map an HTTP error reply back to the exception class it names."""
    try:
        payload = json.loads(body.decode("utf-8"))
        name = payload.get("error", "ServerError")
        message = payload.get("message", f"HTTP {status}")
    except Exception:  # noqa: BLE001 — an unparseable error body is
        # itself a server failure; fall through to the generic class.
        name, message = "ServerError", f"HTTP {status}: {body[:200]!r}"
    if name == "SelectionError":
        return SelectionError(message)
    return ServerError(f"{name}: {message}" if name != "ServerError"
                       else message)
