"""End-to-end smoke drive of the tuning service, as CI runs it.

``python -m repro.server.smoke -o selection_config.json`` boots a real
``repro-serve`` subprocess on an ephemeral port and walks the whole
service surface the way an external client would — over TCP, across a
process boundary, with nothing shared but the URL:

* ``GET /`` — the descriptor answers and advertises the boot grid;
* ``GET /select`` — a tuned choice comes back and matches ``/config``;
* ``GET /schedule`` — the compiled artifact round-trips (fetch by
  parameters, re-fetch by the returned source fingerprint; the client
  compares the decoded artifact's columns with its schedule's);
* ``POST /tune`` — N concurrent requests for one *cold* collective
  coalesce into a single sweep (exactly one ``outcome="swept"``, the
  rest ``"coalesced"``);
* ``GET /metrics`` — the Prometheus exposition includes the service's
  own request counters;
* ``GET /config`` — the selection-config artifact exports, loads back,
  and agrees with the served selections; the saved file is the artifact
  CI uploads;
* hostile requests — an oversized head, a stalled head, a truncated
  body and a chunked body each get their structured refusal (``431``,
  ``408``, ``408``, ``501``) within the service's read deadline, and
  ``/select`` still answers after;
* keep-alive — 50 ``/select`` calls open at most 2 new connections, by
  the service's own ``repro_server_connections_total``;
* ``SIGTERM`` — with the probe client's connection still open and idle,
  the daemon exits 0 ("stopped cleanly").

The coalescing assertion is made race-free against a real subprocess:
the boot sweep covers only ``allreduce``, so tuning a cold
collective costs a real sweep; each follower opens its connection
first, the driver fires a leader, polls the descriptor's ``inflight``
counter until the leader is visibly in flight, then releases the
followers into that window at once.  If the leader finishes before it
is seen, or a follower still straggles past the sweep and sweeps itself
(a loaded CI host can oversleep anything), the attempt is inconclusive
and retries on the next cold collective rather than flaking; the probe
fails only when no attempt concludes, so a service that never
coalesces still fails it.

Exit status is 0 only if every probe passes; failures print one
``smoke FAIL:`` line each and exit 1, so the Makefile target and the
CI job stay one-line consumers.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from ..errors import ServerError

__all__ = ["run_smoke", "main"]

#: Collectives the boot sweep deliberately leaves cold, in the order
#: the coalescing probe tries them.  Each retry needs a fresh one: the
#: previous attempt's sweep warms the service's simulation memo, which
#: would make a second attempt on the same collective near-instant.
#: Slowest sweep first (≈ 80, 65, 50 and 20 ms on the smoke's machine):
#: the sweep is the window the followers must land in.
_COLD_COLLECTIVES = ("bcast", "allgather", "reduce_scatter", "alltoall")

_BOOT_TIMEOUT_S = 120.0
_POLL_INTERVAL_S = 0.005
_BARRIER_S = 60.0


class _Smoke:
    """One smoke run: a served subprocess plus its probe client."""

    def __init__(self, output: Path, followers: int) -> None:
        from .client import TuningClient

        self.output = output
        self.followers = followers
        self.failures: List[str] = []
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[TuningClient] = None

    # -- plumbing ------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"smoke FAIL: {message}", file=sys.stderr)

    def check(self, ok: bool, message: str) -> bool:
        if ok:
            print(f"smoke ok: {message}")
        else:
            self.fail(message)
        return ok

    def boot(self) -> bool:
        """Spawn ``repro-serve`` and wait for its 'serving on' banner."""
        src = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from repro.cli import main_serve; "
                "sys.exit(main_serve(sys.argv[1:]))",
                "--port", "0",
                "--machine", "reference", "--nodes", "8",
                # Boot only allreduce: a fast start, and every other
                # collective stays cold for the coalescing probe.
                "--collectives", "allreduce",
                "--min-bytes", "64", "--max-bytes", "8192",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        banner: List[str] = []

        def read() -> None:
            for line in self.proc.stdout:  # pragma: no branch
                if line.startswith("serving on "):
                    banner.append(line.split("serving on ", 1)[1].strip())
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(_BOOT_TIMEOUT_S)
        if not banner:
            self.fail(
                f"server did not print 'serving on' within "
                f"{_BOOT_TIMEOUT_S:.0f}s"
            )
            return False
        from .client import TuningClient

        self.client = TuningClient(banner[0])
        print(f"smoke ok: server up at {banner[0]}")
        return True

    # -- probes --------------------------------------------------------

    def probe_descriptor(self) -> Dict:
        info = self.client.info()
        self.check(
            info.get("service") == "repro-tuning-service"
            and info.get("collectives") == ["allreduce"],
            f"descriptor: {info.get('service')} on {info.get('machine')} "
            f"(p={info.get('nranks')}, {len(info.get('sizes', []))} sizes)",
        )
        return info

    def probe_select(self) -> None:
        choice = self.client.select("allreduce", 8, 4096)
        self.check(
            bool(choice.algorithm),
            f"/select allreduce p=8 n=4096 -> {choice.algorithm} "
            f"k={choice.k}",
        )
        # The same point through the exported artifact must agree.
        cfg = self.client.config()
        self.check(
            cfg.select("allreduce", 8, 4096) == choice,
            "/config selects the same choice as /select",
        )

    def probe_schedule(self) -> None:
        schedule, compiled = self.client.compiled_schedule(
            collective="allreduce", algorithm="recursive_doubling", p=8
        )
        by_fp = self.client.schedule(
            fingerprint=schedule.fingerprint()
        )
        self.check(
            by_fp["source_fingerprint"] == schedule.fingerprint(),
            f"/schedule round-trips by fingerprint "
            f"({schedule.fingerprint()[:16]}..., "
            f"{compiled.total_ops()} ops in one verified table)",
        )

    def probe_coalescing(self, info: Dict) -> None:
        for collective in _COLD_COLLECTIVES:
            outcomes = self._coalesce_once(collective)
            if outcomes is None or outcomes.count("swept") > 1:
                continue  # inconclusive; retry on the next cold one
            swept = outcomes.count("swept")
            joined = outcomes.count("coalesced")
            self.check(
                swept == 1 and joined == self.followers,
                f"/tune x{self.followers + 1} on cold {collective!r}: "
                f"{swept} swept, {joined} coalesced",
            )
            return
        self.fail(
            "coalescing probe reached no conclusive attempt (a sweep seen "
            "in flight and every follower joining it) on any cold "
            f"collective {list(_COLD_COLLECTIVES)}"
        )

    def _coalesce_once(self, collective: str) -> Optional[List[str]]:
        """Leader + followers on one cold collective.

        Each follower opens its connection (one ``info()``) and waits at
        a barrier; the driver releases them all once the leader's sweep
        shows in ``inflight``.  Returns every request's ``outcome``, or
        ``None`` when the leader's sweep finished before the descriptor
        ever showed it in flight or the followers never all connected.
        A follower that straggles past the sweep reports ``"swept"``;
        the caller treats that as inconclusive too.
        """
        outcomes: List[str] = []
        lock = threading.Lock()
        ready = threading.Barrier(self.followers + 1, timeout=_BARRIER_S)
        release = threading.Barrier(self.followers + 1, timeout=_BARRIER_S)

        def tune() -> None:
            out = self.client.tune(collective)
            with lock:
                outcomes.append(out["outcome"])

        def follow() -> None:
            try:
                self.client.info()  # this thread's connection, opened now
                ready.wait()
                release.wait()
            except ServerError as exc:
                self.fail(f"a /tune follower could not connect: {exc}")
                ready.abort()
                return
            except threading.BrokenBarrierError:
                return  # the attempt was called off
            tune()

        crowd = [
            threading.Thread(target=follow) for _ in range(self.followers)
        ]
        for t in crowd:
            t.start()
        try:
            ready.wait()
        except threading.BrokenBarrierError:
            for t in crowd:
                t.join()
            return None
        leader = threading.Thread(target=tune)
        leader.start()
        seen_inflight = False
        while leader.is_alive():
            if self.client.info()["inflight"] >= 1:
                seen_inflight = True
                break
            time.sleep(_POLL_INTERVAL_S)
        if seen_inflight:
            release.wait()
        else:
            release.abort()
        for t in [leader, *crowd]:
            t.join()
        return outcomes if seen_inflight else None

    def probe_metrics(self) -> None:
        text = self.client.metrics()
        self.check(
            "repro_server_requests_total" in text,
            "/metrics exposes repro_server_requests_total",
        )

    def probe_config_artifact(self) -> None:
        from ..selection import CONFIG_FORMAT, SelectionConfig

        self.client.save_config(self.output)
        cfg = SelectionConfig.load(self.output)
        self.check(
            CONFIG_FORMAT in self.output.read_text(encoding="utf-8")
            and _COLD_COLLECTIVES[0] in cfg.collectives,
            f"/config artifact saved to {self.output} "
            f"({len(cfg.timings)} timings, "
            f"collectives {list(cfg.collectives)})",
        )

    def probe_hostile(self) -> None:
        """Four requests that must neither hang nor surface as a 500,
        sent concurrently so the two stalled ones share one deadline."""
        from .app import _MAX_HEAD_BYTES, _READ_TIMEOUT_S

        probes = {
            "oversized head": (
                (431, "HeaderTooLarge"),
                b"GET /select?" + b"x" * (_MAX_HEAD_BYTES + 4096)
                + b" HTTP/1.1\r\n\r\n",
            ),
            "stalled head": (
                (408, "RequestTimeout"),
                b"GET /select HTTP/1.1\r\nHost: smoke\r\n",
            ),
            "truncated body": (
                (408, "RequestTimeout"),
                b"POST /tune HTTP/1.1\r\nContent-Length: 100\r\n\r\n{",
            ),
            # One refusal, not a second reply to the chunk framing.
            "chunked body": (
                (501, "NotImplemented"),
                b"POST /tune HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n",
            ),
        }
        replies: Dict[str, Tuple[object, float]] = {}
        deadline = _READ_TIMEOUT_S + 10.0

        def send(name: str, request: bytes) -> None:
            began = time.monotonic()
            try:
                reply = _exchange(self.client.url, request, deadline)
            except (OSError, ValueError) as exc:
                reply = repr(exc)
            replies[name] = (reply, time.monotonic() - began)

        threads = [
            threading.Thread(target=send, args=(name, request))
            for name, (_, request) in probes.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for name, (want, _) in probes.items():
            reply, took = replies[name]
            self.check(
                reply == want and took < deadline,
                f"{name} -> {reply} in {took:.1f}s "
                f"(read deadline {_READ_TIMEOUT_S:g}s)",
            )
        choice = self.client.select("allreduce", 8, 4096)
        self.check(
            bool(choice.algorithm),
            "/select still answers after the hostile requests",
        )

    def probe_keepalive(self) -> None:
        """50 selections ride the client's kept-alive connection (2 new
        ones allowed: the service may close an idle one meanwhile)."""
        before = _connections(self.client.metrics())
        for i in range(50):
            self.client.select("allreduce", 8, 64 << (i % 8))
        after = _connections(self.client.metrics())
        if before is None or after is None:
            self.fail("/metrics lacks repro_server_connections_total")
            return
        self.check(
            after - before <= 2,
            f"50 /select calls opened {after - before:g} new connection(s)",
        )

    def shutdown(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.fail("server did not exit within 30s of SIGTERM")
            return
        self.check(rc == 0, f"SIGTERM -> clean exit (rc={rc})")


def _connections(metrics: str) -> Optional[float]:
    """``repro_server_connections_total`` in a Prometheus exposition."""
    for line in metrics.splitlines():
        name, _, value = line.partition(" ")
        if name == "repro_server_connections_total":
            return float(value)
    return None


def _exchange(url: str, request: bytes, timeout: float) -> Tuple[int, str]:
    """Send raw ``request`` bytes to the service at ``url`` and read
    until it closes: the reply's ``(status, error class)``."""
    parts = urlsplit(url)
    with socket.create_connection(
        (parts.hostname, parts.port), timeout=timeout
    ) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)["error"]


def run_smoke(output: Path, *, followers: int = 7) -> int:
    """Drive one full smoke run; return the process exit status."""
    smoke = _Smoke(output, followers)
    if not smoke.boot():
        if smoke.proc is not None:
            smoke.proc.kill()
        return 1
    try:
        info = smoke.probe_descriptor()
        smoke.probe_select()
        smoke.probe_schedule()
        smoke.probe_coalescing(info)
        smoke.probe_metrics()
        smoke.probe_config_artifact()
        smoke.probe_hostile()
        smoke.probe_keepalive()
        smoke.shutdown()
    finally:
        if smoke.proc.poll() is None:
            smoke.proc.kill()
    if smoke.failures:
        print(f"serve smoke: {len(smoke.failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("serve smoke: all probes passed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.server.smoke``: the CI serve-smoke entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.smoke",
        description="Boot a repro-serve subprocess on an ephemeral port "
        "and smoke-test /select, /schedule, coalesced /tune, /metrics, "
        "/config, hostile requests, keep-alive, and clean SIGTERM "
        "shutdown.",
    )
    parser.add_argument("-o", "--output", type=Path,
                        default=Path("selection_config.json"),
                        help="where to save the exported selection-config "
                        "artifact (default selection_config.json)")
    parser.add_argument("--followers", type=int, default=7,
                        help="concurrent /tune requests expected to "
                        "coalesce behind the leader (default 7)")
    args = parser.parse_args(argv)
    return run_smoke(args.output, followers=args.followers)


if __name__ == "__main__":
    sys.exit(main())
