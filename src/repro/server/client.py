"""Stdlib client for the tuning service (plain sockets, no dependencies).

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
connection to the service (a socket and its buffered reader) and speaks
HTTP on it directly.  The service may close a connection that idled past
its read deadline; a request whose *reused* connection fails before any
status-line byte arrives is sent once more on a fresh connection.  That
can repeat a ``POST /tune``, which single-flight coalescing makes
harmless: the repeat joins or re-runs the same sweep.
"""

from __future__ import annotations

import json
import socket
import threading
from pathlib import Path
from typing import BinaryIO, Dict, Optional, Tuple, Union
from urllib.parse import quote, urlsplit

from ..compile.program import CompiledSchedule
from ..core.schedule import Schedule
from ..core.serialize import loads_blob
from ..errors import SelectionError, ServerError
from ..selection import Choice, SelectionConfig

__all__ = ["TuningClient"]

#: Longest reply head (status line + headers) the client reads.
_MAX_HEAD_BYTES = 1 << 16


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
        parts = urlsplit(self.url)
        self._tls = parts.scheme == "https"
        port = parts.port or (443 if self._tls else 80)
        self._address = (parts.hostname, port)
        self._host = parts.netloc
        self._base = parts.path
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connect(self) -> Tuple[socket.socket, BinaryIO]:
        """(Re)open the calling thread's connection; ``ssl`` only for TLS."""
        self._drop()
        sock = socket.create_connection(self._address, timeout=self.timeout)
        if self._tls:
            import ssl

            sock = ssl.create_default_context().wrap_socket(
                sock, server_hostname=self._address[0]
            )
        self._local.conn = (sock, sock.makefile("rb"))
        return self._local.conn

    def _drop(self) -> None:
        """Close the calling thread's connection, if it has one."""
        for part in reversed(getattr(self._local, "conn", None) or ()):
            part.close()
        self._local.conn = None

    def _request(self, path: str, *, body: Optional[Dict] = None) -> bytes:
        """One exchange; re-raises wire errors under their real class."""
        data = b"" if body is None else json.dumps(body).encode("utf-8")
        # Quoted, so no caller string can break the request line.
        target = quote(self._base + path, safe="/?&=%")
        head = f"{'POST' if data else 'GET'} {target} HTTP/1.1\r\n" \
            f"Host: {self._host}\r\n"
        if data:
            head += "Content-Type: application/json\r\n" \
                f"Content-Length: {len(data)}\r\n"
        request = (head + "\r\n").encode("latin-1") + data
        conn = getattr(self._local, "conn", None)
        try:
            reply = self._exchange(conn or self._connect(), request)
            if reply is None and conn is not None:  # closed while idle
                reply = self._exchange(self._connect(), request)
            if reply is None:
                raise ConnectionError("connection closed before a reply")
        except BaseException as exc:
            self._drop()  # a failed exchange leaves no frame boundary
            if not isinstance(exc, (OSError, ValueError)):
                raise
            what = "cannot reach" if isinstance(exc, OSError) \
                else "malformed reply from"
            raise ServerError(
                f"{what} tuning service at {self.url}: {exc}"
            ) from exc
        status, payload = reply
        if not 200 <= status < 300:
            raise _wire_error(status, payload)
        return payload

    def _exchange(
        self, conn: Tuple[socket.socket, BinaryIO], request: bytes
    ) -> Optional[Tuple[int, bytes]]:
        """Send ``request`` on ``conn`` and read one reply: (status, body),
        or ``None`` if the connection ended before any status-line byte.

        The body is framed by ``Content-Length``, or read to EOF without
        one; then, as after ``Connection: close`` or HTTP/1.0, the
        connection is dropped."""
        sock, stream = conn
        try:
            sock.sendall(request)
            line = stream.readline(_MAX_HEAD_BYTES)
        except (BrokenPipeError, ConnectionResetError):
            return None
        if not line:
            return None
        version, _, rest = line.partition(b" ")
        if version not in (b"HTTP/1.0", b"HTTP/1.1") or not rest[:3].isdigit():
            raise ValueError(f"malformed status line {line[:80]!r}")
        headers: Dict[str, str] = {}
        budget = _MAX_HEAD_BYTES - len(line)
        while line.endswith(b"\n") and budget > 0:
            line = stream.readline(budget)
            budget -= len(line)
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:  # a line cut short by EOF or by the head bound
            raise ValueError("reply head cut short or over its bound")
        length = int(headers.get("content-length", -1))  # -1: read to EOF
        body = stream.read(length)
        if len(body) < length:
            raise ValueError(f"reply body short of Content-Length {length}")
        if length < 0 or version != b"HTTP/1.1" \
                or "close" in headers.get("connection", "").lower():
            self._drop()
        return int(rest[:3]), body

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
        prefix).  The payload carries the source fingerprint, the store
        key and the two blobs; :meth:`compiled_schedule` decodes and
        reverifies them.
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

        Same query surface as :meth:`schedule`; the compiled artifact's
        columns are compared with its source schedule's after decoding
        (:class:`~repro.errors.CompileError` on mismatch — the same
        check the disk store applies).  Execute the *schedule*
        (``schedule.bind(block_map)``): a decoded artifact has no source
        schedule, so its ``bind`` refuses.
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
