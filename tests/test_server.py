"""The tuning service end to end: endpoints, coalescing, lifecycle.

One background service (module-scoped — boot sweeps only ``allreduce``
so every other collective stays cold for the tuning tests) is shared by
the endpoint probes; the CLI tests spawn real ``repro-serve``
subprocesses to pin the signal contract (SIGTERM exits 0, Ctrl-C 130).

The load-bearing promise throughout: anything the service answers must
be **bit-identical** to what the in-process library produces — served
selections equal :func:`repro.selection.tune`'s, served schedules
re-verify against their compiled programs, and N concurrent ``/tune``
requests share one sweep without changing its result.
"""

import base64
import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.bench.sweep import clear_sim_memo
from repro.core.registry import build_schedule
from repro.errors import ExecutionError, SelectionError, ServerError
from repro.selection import tune
from repro.server import TuningClient, TuningService, serve_background
from repro.simnet.machines import reference

ROOT = Path(__file__).resolve().parent.parent
P = 8
SIZES = [256, 4096]
MACHINE = reference(P)

#: Collectives the boot sweep leaves cold, one per coalescing attempt
#: (a retried attempt needs a fresh one: the previous attempt's sweep
#: warms the simulation memo, making a re-run near-instant).
COLD = ("alltoall", "reduce_scatter", "gather")


@pytest.fixture(scope="module")
def served():
    """(handle, client, direct config) for one shared background service."""
    direct = tune(MACHINE, SIZES, collectives=("allreduce",))
    with serve_background(
        MACHINE, SIZES, collectives=("allreduce",)
    ) as handle:
        yield handle, TuningClient(handle.url), direct


def test_descriptor(served):
    handle, client, _ = served
    info = client.info()
    assert info["service"] == "repro-tuning-service"
    assert info["machine"] == MACHINE.name
    assert info["nranks"] == P
    assert info["sizes"] == SIZES
    assert info["inflight"] == 0
    assert handle.url.startswith("http://127.0.0.1:")


def test_select_matches_in_process_tune(served):
    _, client, direct = served
    for nbytes in SIZES:
        assert client.select("allreduce", P, nbytes) == direct.select(
            "allreduce", P, nbytes
        )


def test_config_export_matches_in_process_tune(served):
    _, client, direct = served
    cfg = client.config()
    for nbytes in SIZES:
        assert cfg.select("allreduce", P, nbytes) == direct.select(
            "allreduce", P, nbytes
        )
    assert cfg.machine == MACHINE.name
    assert "allreduce" in cfg.collectives


def test_schedule_by_params_and_fingerprint(served):
    _, client, _ = served
    schedule, compiled = client.compiled_schedule(
        collective="allreduce", algorithm="recursive_multiplying", p=P, k=4
    )
    assert schedule.algorithm == "recursive_multiplying"
    compiled.verify(schedule)  # raises CompileError on any wire corruption
    by_fp = client.schedule(fingerprint=schedule.fingerprint())
    assert by_fp["source_fingerprint"] == schedule.fingerprint()
    # The 16-hex store-key prefix resolves too (what a disk store's
    # compiled/… keys carry).
    by_prefix = client.schedule(fingerprint=schedule.fingerprint()[:16])
    assert by_prefix["source_fingerprint"] == schedule.fingerprint()


def test_schedule_normalizes_fixed_radix(served):
    """A fixed-radix schedule indexed under its structural k (e.g.
    recursive doubling's k=2) must rebuild through the real builder."""
    _, client, _ = served
    schedule, _ = client.compiled_schedule(
        collective="allreduce", algorithm="recursive_doubling", p=P, k=2
    )
    again = client.schedule(fingerprint=schedule.fingerprint())
    assert again["source_fingerprint"] == schedule.fingerprint()


def test_schedule_served_by_params_is_fetchable_by_fingerprint(served):
    """Builders alias — ``allgather/bruck`` at k = 3 reports itself as
    ``bruck_kport``, the one-segment pipelined chain bcast as ``chain``
    — so the index keeps the registry parameters that were asked, which rebuild
    the schedule, not the names it gives itself."""
    _, client, _ = served
    for asked in (
        dict(collective="allgather", algorithm="bruck", p=P, k=3),
        dict(collective="bcast", algorithm="pipelined_chain", p=P, k=1),
    ):
        schedule, _ = client.compiled_schedule(**asked)
        assert schedule.algorithm != asked["algorithm"]
        again = client.schedule(fingerprint=schedule.fingerprint())
        assert again["source_fingerprint"] == schedule.fingerprint()


def test_degenerate_kring_is_served_back_as_itself(served):
    """k-ring at k = 1 labels itself ``ring`` but keeps ``k = 1`` in its
    fingerprint; asked for by that fingerprint, the service must not
    answer with registry ``ring`` (``k = None``, another fingerprint)."""
    _, client, _ = served
    schedule, _ = client.compiled_schedule(
        collective="allgather", algorithm="kring", p=P, k=1
    )
    assert (schedule.algorithm, schedule.k) == ("ring", 1)
    again = client.schedule(fingerprint=schedule.fingerprint())
    assert again["source_fingerprint"] == schedule.fingerprint()


def test_index_entry_that_builds_another_schedule_is_a_404(tmp_path):
    """The boot-time index comes from store keys, which carry the
    schedule's self-reported names: for k-ring at k = 1 they resolve to
    registry ``ring``.  Served is never silently different from asked —
    the reply is a structured 404 naming both."""
    from repro.server.app import _HttpReply

    first = TuningService(
        MACHINE, SIZES, collectives=("allreduce",), store=tmp_path
    )
    fp = first._ep_schedule(
        {"collective": "allgather", "algorithm": "kring", "k": "1"}
    )["source_fingerprint"]

    second = TuningService(
        MACHINE, SIZES, collectives=("allreduce",), store=tmp_path
    )
    with pytest.raises(_HttpReply, match="not serving a different") as exc:
        second._ep_schedule({"fingerprint": fp[:16]})
    assert exc.value.status == 404


def test_schedule_unknown_fingerprint_is_a_server_error(served):
    _, client, _ = served
    with pytest.raises(ServerError, match="fingerprint"):
        client.schedule(fingerprint="deadbeef" * 8)


def test_selection_miss_stays_a_selection_error(served):
    """Error fidelity across the wire: 'no rule covers this point' must
    re-raise as SelectionError, not a generic transport failure."""
    _, client, _ = served
    with pytest.raises(SelectionError, match="unknown collective"):
        client.select("gossip", P, 4096)


def test_tune_rejects_malformed_requests(served):
    _, client, _ = served
    with pytest.raises(ServerError, match="collective"):
        client.tune("")


def _exchange(handle, request: bytes):
    """Send ``request`` as is and read until the service closes: the
    (status line, decoded error document) it answers.  A service that
    never answers fails the test on the 5 s socket timeout."""
    service = handle.service
    with socket.create_connection(
        (service.host, service.port), timeout=5
    ) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode(), json.loads(body)


def _announce(handle, content_length: str):
    """POST /tune announcing ``content_length`` but sending no body."""
    return _exchange(
        handle,
        b"POST /tune HTTP/1.1\r\nContent-Length: "
        + content_length.encode() + b"\r\n\r\n",
    )


def test_oversized_body_is_refused_before_it_is_read(served):
    """A client announcing 2**40 bytes gets a structured 413 while the
    server has read none of them — it cannot park the connection."""
    handle, _, _ = served
    status, doc = _announce(handle, str(1 << 40))
    assert status == "HTTP/1.1 413 Payload Too Large"
    assert doc["error"] == "PayloadTooLarge"
    assert str(1 << 40) in doc["message"]


@pytest.mark.parametrize("content_length", ["-1", "ten"])
def test_malformed_content_length_is_a_400(served, content_length):
    handle, _, _ = served
    status, doc = _announce(handle, content_length)
    assert status == "HTTP/1.1 400 Bad Request"
    assert doc["error"] == "ServerError"
    assert "malformed request" in doc["message"]


def test_oversized_head_is_a_431(served, monkeypatch):
    """A 70 kB request line overruns the head limit: a structured 431,
    not asyncio's internal error as a 500."""
    monkeypatch.setattr("repro.server.app._READ_TIMEOUT_S", 0.5)
    handle, client, _ = served
    status, doc = _exchange(
        handle, b"GET /select?" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n"
    )
    assert status == "HTTP/1.1 431 Request Header Fields Too Large"
    assert doc["error"] == "HeaderTooLarge"
    assert client.info()["service"] == "repro-tuning-service"


@pytest.mark.parametrize("request_bytes", [
    b"GET /select HTTP/1.1\r\nHost: stalled\r\n",
    b"POST /tune HTTP/1.1\r\nContent-Length: 100\r\n\r\n{",
], ids=["stalled-head", "truncated-body"])
def test_undelivered_request_is_a_408(served, monkeypatch, request_bytes):
    """A head with no blank line, or a body shorter than its
    Content-Length, gets a structured 408 at the read deadline and the
    connection closes — it cannot park the service."""
    monkeypatch.setattr("repro.server.app._READ_TIMEOUT_S", 0.5)
    handle, client, _ = served
    began = time.monotonic()
    status, doc = _exchange(handle, request_bytes)
    assert status == "HTTP/1.1 408 Request Timeout"
    assert doc["error"] == "RequestTimeout"
    assert "0.5 s" in doc["message"]
    assert 0.5 <= time.monotonic() - began < 5
    assert client.info()["service"] == "repro-tuning-service"


def _connect(handle):
    service = handle.service
    return socket.create_connection((service.host, service.port), timeout=5)


def _read_reply(stream):
    """One reply from a socket's ``makefile("rb")``: (status line,
    lower-cased headers, body), framed by its Content-Length."""
    status = stream.readline().decode().rstrip("\r\n")
    headers = {}
    while (line := stream.readline().decode().rstrip("\r\n")):
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, stream.read(int(headers["content-length"]))


def _counts(service):
    """(connections accepted, requests answered) by ``service``."""
    snap = service.obs.metrics.snapshot()
    return (snap.total("repro_server_connections_total"),
            snap.total("repro_server_requests_total"))


def test_keepalive_answers_requests_in_order_on_one_socket(served):
    """Three GETs sent back to back on one socket come back in order on
    it, kept alive until the last asks to close."""
    handle, _, _ = served
    with _connect(handle) as sock, sock.makefile("rb") as stream:
        sock.sendall(
            b"GET / HTTP/1.1\r\nHost: t\r\n\r\n"
            b"GET /select?collective=allreduce&nbytes=256 HTTP/1.1\r\n"
            b"Host: t\r\n\r\n"
            b"GET /config HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        replies = [_read_reply(stream) for _ in range(3)]
        assert stream.read() == b""  # then the service closes
    assert [status for status, _, _ in replies] == ["HTTP/1.1 200 OK"] * 3
    assert [h["connection"] for _, h, _ in replies] == [
        "keep-alive", "keep-alive", "close"
    ]
    descriptor, choice, config = (json.loads(b) for _, _, b in replies)
    assert descriptor["service"] == "repro-tuning-service"
    assert choice["nbytes"] == 256
    assert config["machine"] == MACHINE.name


def test_keepalive_survives_an_endpoint_error(served):
    """A request read in full keeps its connection even when the answer
    is an error."""
    handle, _, _ = served
    with _connect(handle) as sock, sock.makefile("rb") as stream:
        sock.sendall(b"GET /nowhere HTTP/1.1\r\n\r\nGET / HTTP/1.1\r\n\r\n")
        (missing, h1, _), (found, h2, _) = (_read_reply(stream),
                                            _read_reply(stream))
    assert (missing, h1["connection"]) == ("HTTP/1.1 404 Not Found",
                                           "keep-alive")
    assert (found, h2["connection"]) == ("HTTP/1.1 200 OK", "keep-alive")


@pytest.mark.parametrize("request_bytes", [
    b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
    b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n",
    b"GET / HTTP/1.0\r\n\r\n",
], ids=["close", "close-capitalised", "http-1.0"])
def test_connection_close_is_honoured(served, request_bytes):
    handle, _, _ = served
    with _connect(handle) as sock, sock.makefile("rb") as stream:
        sock.sendall(request_bytes)
        status, headers, _ = _read_reply(stream)
        assert stream.read() == b""
    assert (status, headers["connection"]) == ("HTTP/1.1 200 OK", "close")


@pytest.mark.parametrize("request_bytes,status", [
    (b"POST /tune HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
    (b"GET /select HTTP/1.1\r\nHost: stalled\r\n", 408),
    (b"POST /tune HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (1 << 40), 413),
    (b"GET /select?" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n", 431),
], ids=["400", "408", "413", "431"])
def test_unreadable_request_closes_connection(served, monkeypatch,
                                              request_bytes, status):
    """A request that cannot be read in full is answered and the
    connection closed: the rest of the stream cannot be framed."""
    monkeypatch.setattr("repro.server.app._READ_TIMEOUT_S", 0.5)
    handle, _, _ = served
    with _connect(handle) as sock, sock.makefile("rb") as stream:
        sock.sendall(request_bytes)
        got, headers, _ = _read_reply(stream)
        assert stream.read() == b""
    assert got.startswith(f"HTTP/1.1 {status} ")
    assert headers["connection"] == "close"


@pytest.mark.parametrize("requests_first", [0, 1])
def test_idle_connection_closes_quietly(served, monkeypatch, requests_first):
    """A connection that sends no byte of a request within the read
    deadline — fresh, or kept alive after a reply — is closed with no
    reply at all (a 408 is for a request that started)."""
    monkeypatch.setattr("repro.server.app._READ_TIMEOUT_S", 0.5)
    handle, _, _ = served
    with _connect(handle) as sock, sock.makefile("rb") as stream:
        for _ in range(requests_first):
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
            assert _read_reply(stream)[1]["connection"] == "keep-alive"
        began = time.monotonic()
        assert stream.read() == b""
    assert 0.5 <= time.monotonic() - began < 5


def test_client_retries_once_after_idle_connection_close(served,
                                                         monkeypatch):
    """The service closes a client's idle connection; the client's next
    call fails on the stale socket before any status line, reconnects
    once, and succeeds."""
    monkeypatch.setattr("repro.server.app._READ_TIMEOUT_S", 0.5)
    handle, _, direct = served
    client = TuningClient(handle.url)
    before, _ = _counts(handle.service)
    assert client.select("allreduce", P, 256) == direct.select(
        "allreduce", P, 256
    )
    time.sleep(1.0)  # the service drops the idle connection meanwhile
    assert client.select("allreduce", P, 4096) == direct.select(
        "allreduce", P, 4096
    )
    assert _counts(handle.service)[0] - before == 2


def test_keepalive_one_connection_per_thread(served):
    """Threads sharing one client each keep their own connection."""
    handle, _, _ = served
    client = TuningClient(handle.url)
    before, _ = _counts(handle.service)
    barrier = threading.Barrier(2)

    def work():
        for _ in range(3):
            client.info()
        barrier.wait(timeout=5)  # both connections open at once

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert _counts(handle.service)[0] - before == 2


def test_keepalive_metrics_count_connections():
    """``/metrics`` shows reuse: 20 selections on one client arrive on
    one connection."""
    from repro.obs import Obs

    with serve_background(
        MACHINE, SIZES, collectives=("allreduce",), obs=Obs()
    ) as handle:
        client = TuningClient(handle.url)
        for i in range(20):
            client.select("allreduce", P, SIZES[i % 2])
        connections, requests = _counts(handle.service)
        assert "repro_server_connections_total 1" in client.metrics()
    assert connections == 1
    assert requests >= 20


def test_close_with_an_idle_client_connection_is_prompt(caplog):
    """Stopping the service closes idle keep-alive connections rather
    than waiting on them, and leaves no handler task pending."""
    import gc
    import logging

    handle = serve_background(MACHINE, SIZES, collectives=("allreduce",))
    client = TuningClient(handle.url)
    client.info()  # leaves this thread's connection open and idle
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        began = time.monotonic()
        handle.close()
        took = time.monotonic() - began
        gc.collect()
    assert took < 2
    assert "Task was destroyed but it is pending" not in caplog.text
    with pytest.raises(ServerError, match="cannot reach"):
        client.info()


def test_concurrent_tunes_coalesce(served):
    """N concurrent /tune requests for one cold sweep share one leader.

    Deterministic, no timing window: the test holds the service's sweep
    lock, so the leader blocks mid-sweep while every follower arrives
    and registers against the in-flight future; only then does the
    sweep proceed.
    """
    handle, client, _ = served
    service = handle.service
    followers = 5
    clear_sim_memo()  # in-process service: the sweep really runs
    before_sweeps = service.sweeps_run
    before_joined = service.coalesced
    outcomes, lock = [], threading.Lock()

    def tune():
        out = client.tune("alltoall")
        with lock:
            outcomes.append(out["outcome"])

    threads = [threading.Thread(target=tune) for _ in range(followers + 1)]
    with service._sweep_lock:  # leader blocks here until we release
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        while service.coalesced - before_joined < followers:
            assert time.monotonic() < deadline, (
                f"only {service.coalesced - before_joined} of {followers} "
                f"followers coalesced before the deadline"
            )
            time.sleep(0.002)
    for t in threads:
        t.join()
    assert outcomes.count("swept") == 1
    assert outcomes.count("coalesced") == followers
    assert service.sweeps_run - before_sweeps == 1


def test_tune_merges_into_served_config(served):
    """After /tune on a new collective, /select and /config cover it."""
    _, client, _ = served
    out = client.tune("alltoall")  # warm by now (coalescing test swept it)
    assert set(out["winners"]) == {str(n) for n in SIZES}
    choice = client.select("alltoall", P, 4096)
    assert choice.algorithm == out["winners"]["4096"]["algorithm"]
    assert "alltoall" in client.config().collectives


def test_metrics_exposes_request_counters(served):
    _, client, _ = served
    text = client.metrics()
    assert "repro_server_requests_total" in text
    assert 'endpoint="/select"' in text


def test_execute_with_served_selection(served):
    """``execute(select=url)`` runs the served choice bit-identically to
    naming that (algorithm, k) explicitly."""
    from repro.api import execute

    _, client, _ = served
    count = 512  # int64 -> 4096 bytes, on the served grid
    choice = client.select("allreduce", P, count * 8)
    via_server = execute(
        "allreduce", "ring", p=P, count=count, select=client.url,
    )
    explicit = execute(
        "allreduce", choice.algorithm, p=P, count=count, k=choice.k,
    )
    assert via_server.schedule.algorithm == choice.algorithm
    assert via_server.schedule.k == explicit.schedule.k
    for mine, theirs in zip(via_server.buffers, explicit.buffers):
        assert (mine == theirs).all()


def test_execute_select_and_adapt_are_mutually_exclusive(served):
    from repro.api import execute

    _, client, _ = served
    with pytest.raises(ExecutionError, match="mutually exclusive"):
        execute(
            "allreduce", "ring", p=P, count=64,
            select=client.url, adapt="calm",
        )


def test_client_rejects_non_http_urls():
    with pytest.raises(ServerError, match="http"):
        TuningClient("ftp://example.invalid")


def test_client_unreachable_is_a_server_error():
    client = TuningClient("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(ServerError, match="cannot reach"):
        client.info()


def test_client_rejects_a_payload_of_the_wrong_type(monkeypatch):
    """A /schedule payload whose blobs decode, but not to a schedule and
    its compiled program, is a service-contract violation — a
    ServerError like every other undecodable payload, never an
    AttributeError from deep inside verification."""
    client = TuningClient("http://127.0.0.1:9")

    def blob(obj):  # the wire format, spelled out by hand
        return base64.b64encode(pickle.dumps(obj)).decode("ascii")

    schedule = build_schedule("allreduce", "ring", P)
    monkeypatch.setattr(client, "schedule", lambda **_kw: {
        "schedule_pickle": blob(schedule),
        "compiled_pickle": blob({"not": "a compiled program"}),
    })
    with pytest.raises(ServerError, match="failed to decode"):
        client.compiled_schedule(collective="allreduce", algorithm="ring")


def test_store_backed_fingerprint_index_survives_restart(tmp_path):
    """A /schedule served by one service resolves by fingerprint in a
    *fresh* service over the same store — the index is rebuilt from the
    store's compiled/… keys at boot."""
    first = TuningService(
        MACHINE, SIZES, collectives=("allreduce",), store=tmp_path
    )
    payload = first._ep_schedule(
        {"collective": "allreduce", "algorithm": "recursive_multiplying",
         "k": "4"}
    )
    fp = payload["source_fingerprint"]

    second = TuningService(
        MACHINE, SIZES, collectives=("allreduce",), store=tmp_path
    )
    again = second._ep_schedule({"fingerprint": fp[:16]})
    assert again["source_fingerprint"] == fp
    assert again["compiled_fingerprint"] == payload["compiled_fingerprint"]
    assert again["schedule_pickle"] == payload["schedule_pickle"]


def test_boot_over_a_damaged_store_entry(tmp_path):
    """An entry file that no longer decodes as UTF-8 (one high-bit flip)
    must not stop the next service booting: the boot-time index skips
    it, and the first request for it quarantines and remakes it."""
    query = {"collective": "allreduce",
             "algorithm": "recursive_multiplying", "k": "4"}
    first = TuningService(
        MACHINE, SIZES, collectives=("allreduce",), store=tmp_path
    )
    payload = first._ep_schedule(query)
    path = first.compiled_cache.store.path_for(payload["store_key"])
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] = 0xA8
    path.write_bytes(bytes(blob))

    second = TuningService(
        MACHINE, SIZES, collectives=("allreduce",), store=tmp_path
    )
    again = second._ep_schedule(query)
    assert again["compiled_fingerprint"] == payload["compiled_fingerprint"]
    assert any(
        "unreadable" in p.name
        for p in second.compiled_cache.store.quarantined()
    )


def test_grid_warm_start_is_bit_identical(tmp_path, served):
    """A service booted from a committed selection-config artifact
    serves the same table as one that swept cold."""
    _, _, direct = served
    path = direct.save(tmp_path / "grid.json")
    warm = TuningService(
        MACHINE, SIZES, collectives=("allreduce",), grid=path
    )
    assert warm.warm_started
    assert warm.config.to_json() == tune(
        MACHINE, SIZES, collectives=("allreduce",)
    ).to_json()


def _spawn_serve(*extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys; from repro.cli import main_serve; "
            "sys.exit(main_serve(sys.argv[1:]))",
            "--port", "0", "--machine", "reference", "--nodes", "4",
            "--collectives", "allreduce",
            "--min-bytes", "64", "--max-bytes", "1024", *extra,
        ],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 120
    for line in proc.stdout:
        if line.startswith("serving on "):
            return proc, line.split("serving on ", 1)[1].strip()
        if time.monotonic() > deadline:  # pragma: no cover
            break
    proc.kill()
    raise AssertionError("repro-serve never printed its banner")


@pytest.mark.parametrize("sig,rc", [
    (signal.SIGTERM, 0),
    (signal.SIGINT, 130),
])
def test_cli_serve_signal_contract(sig, rc):
    """repro-serve: SIGTERM is a clean stop (0), Ctrl-C exits 130."""
    proc, url = _spawn_serve()
    try:
        assert TuningClient(url).info()["service"] == "repro-tuning-service"
        proc.send_signal(sig)
        assert proc.wait(timeout=30) == rc
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
