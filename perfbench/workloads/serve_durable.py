"""``serve_durable`` — one tuning-service lifetime over a persistent store.

The same caches and selection table as ``tune_cold``, used differently:
hits and disk reads beside writes.  ``server``, ``store`` and
``selection.table`` dominate and the DES is nearly idle.  Reads and
writes share one cycle, so a format that speeds ``get`` but slows
``put`` (or a wire format that shrinks decode but grows encode) shows as
one net number.

Each repetition gets a fresh copy of a store template populated in
preparation (the full ``frontier-4x4`` grid: schedules + compiled
artifacts + the exported grid artifact).  Units, one closed-loop client:
warm boot (index rebuild, priors replay); batches of seeded
``GET /select``; batches of content-addressed ``/schedule`` fetches
(disk read → checksum → ladder → wire → client re-verify); single
``/schedule`` builds at a rank count absent from the template (build →
compile → store put); ``/config`` parsed; ``/metrics``; one
``POST /tune``; close.  Boot is first and close last, with the rest
interleaved in one fixed order; the seed draws the ``/select`` queries.

Checks: every served choice equals ``table.select`` in-process; every
decoded artifact carries the fingerprint it was asked for (the client
already re-verifies it); ``/config`` equals the grid artifact; the
``/tune`` winners equal the boot table's.
"""

from __future__ import annotations

import base64
import pickle
import random
import shutil
import time
from functools import partial
from typing import Dict, List, Optional

from ..harness import TraceAggregate, Unit, Workload, percentile
from ..spans import Tracer

MACHINE = "frontier-4x4"
SIZES = [1024, 65536, 1 << 20]
TUNED = "reduce"  # the collective the cycle's one POST /tune re-measures

#: Build-on-demand requests: (collective, algorithm, k) at ``BUILD_P``
#: ranks, a geometry the template (16 ranks) does not hold.
BUILD_P = 12
BUILDS = [
    ("allreduce", "knomial", 3),
    ("allreduce", "recursive_multiplying", 4),
    ("allreduce", "kring", 4),
    ("allreduce", "kring", 3),
    ("bcast", "knomial", 4),
    ("allgather", "kring", 4),
    ("reduce", "knomial", 3),
    ("allgather", "recursive_multiplying", 3),
]


class ServeDurable(Workload):
    name = "serve_durable"
    work_unit = "requests"

    def __init__(self, seed, quick, state_dir) -> None:
        super().__init__(seed, quick, state_dir)
        from repro.selection.tuner import DEFAULT_COLLECTIVES
        from repro.simnet.machines import resolve

        self.machine = resolve(MACHINE)
        self.template = state_dir / "template"
        self.grid = state_dir / "grid.json"
        self.store = state_dir / "store"
        rng = random.Random(seed)
        nbatches, per_batch = (2, 10) if quick else (8, 50)
        nfetch, per_fetch = (1, 2) if quick else (8, 3)
        builds = BUILDS[:2] if quick else BUILDS
        self.select_batches = [
            [(rng.choice(DEFAULT_COLLECTIVES), int(2 ** rng.uniform(0, 22)))
             for _ in range(per_batch)]
            for _ in range(nbatches)
        ]
        # Indexes into the template's sorted fingerprint list, resolved
        # at run time (the list exists only after prepare()).  The same
        # artifacts for every seed: they differ tenfold in size, so a
        # drawn set would make the seed change the amount of work.
        self.fetch_batches = [
            [3 * (i * per_fetch + j) for j in range(per_fetch)]
            for i in range(nfetch)
        ]
        middle = [
            Unit(f"select/{i}", "server.select",
                 run=partial(self._select, i),
                 after=partial(self._check_select, i))
            for i in range(nbatches)
        ] + [
            Unit(f"fetch/{i}", "unit",
                 run=partial(self._fetch, i),
                 staged=partial(self._fetch_staged, i),
                 after=self._check_fetch)
            for i in range(nfetch)
        ] + [
            Unit(f"build/{c}/{a}/k={k}", "server.fetch_build",
                 run=partial(self._build, c, a, k))
            for c, a, k in builds
        ] + [
            Unit("config", "server.config_ep", run=self._config,
                 after=self._check_config),
            Unit("metrics", "server.metrics_ep", run=self._metrics),
            Unit("tune", "server.tune", run=self._tune),
        ]
        random.Random(0).shuffle(middle)  # mixed, but the same mix always
        self.units = (
            [Unit("boot", "server.boot", run=self._boot)]
            + middle
            + [Unit("close", "server.close", run=self._close)]
        )
        self.work = float(
            nbatches * per_batch + nfetch * per_fetch + len(builds) + 3
        )
        self.fingerprints: List[str] = []
        self.table = None
        self.reference_json: Optional[str] = None
        self.select_latencies: List[float] = []

    def prepare(self) -> None:
        """Tune once, export the grid artifact, populate the template."""
        from repro.compile.cache import open_compiled_store
        from repro.selection.tuner import DEFAULT_COLLECTIVES, sweep_points
        from repro.server.config import build_config
        from repro.store.schedules import open_schedule_store

        cfg = build_config(self.machine, SIZES)
        cfg.save(self.grid)
        self.table = cfg.table
        self.reference_json = cfg.to_json()
        schedules = open_schedule_store(self.template)
        compiled = open_compiled_store(self.template)
        seen = set()
        fingerprints = []
        for collective in DEFAULT_COLLECTIVES:
            for pt in sweep_points(collective, self.machine, SIZES):
                key = (pt.collective, pt.algorithm, pt.k)
                if key in seen:
                    continue
                seen.add(key)
                sched, _hit = schedules.get_or_build(
                    pt.collective, pt.algorithm, self.machine.nranks,
                    k=pt.k, root=pt.root,
                )
                compiled.get_or_compile(sched)
                # Fetch only what the service can resolve.  Its index
                # maps a fingerprint back to the algorithm name the
                # *schedule* carries, and a schedule that names itself
                # differently from its registry entry (allgather/bruck
                # builds "bruck_kport", k-ring at k=1 or k=p builds
                # "ring") answers 400 or a different schedule — a defect
                # of the program, not a load to measure.
                if sched.algorithm == pt.algorithm:
                    fingerprints.append(sched.fingerprint()[:16])
        self.fingerprints = sorted(fingerprints)

    def begin_rep(self) -> dict:
        ctx = super().begin_rep()
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.template, self.store)
        ctx["wire_bytes"] = 0
        return ctx

    def close_rep(self, ctx: dict) -> None:
        handle = ctx.pop("handle", None)
        if handle is not None:
            handle.close()

    # -- units ----------------------------------------------------------

    def _boot(self, ctx: dict) -> Optional[str]:
        from repro.server import TuningClient, serve_background

        ctx["handle"] = serve_background(
            MACHINE, SIZES, store=self.store, grid=self.grid
        )
        ctx["client"] = TuningClient(ctx["handle"].url)
        if not ctx["handle"].service.warm_started:
            return "service did not warm-start from the grid artifact"
        return None

    def _select(self, i: int, ctx: dict) -> Optional[str]:
        client = ctx["client"]
        p = self.machine.nranks
        served = []
        latencies = self.select_latencies
        for collective, nbytes in self.select_batches[i]:
            t0 = time.perf_counter()
            served.append(client.select(collective, p, nbytes))
            latencies.append(time.perf_counter() - t0)
        ctx["served"] = served
        return None

    def _check_select(self, i: int, ctx: dict) -> Optional[str]:
        p = self.machine.nranks
        for (collective, nbytes), choice in zip(
            self.select_batches[i], ctx.pop("served")
        ):
            if choice != self.table.select(collective, p, nbytes):
                return f"served {choice} for {collective} n={nbytes}"
        return None

    def _fingerprint(self, index: int) -> str:
        return self.fingerprints[index % len(self.fingerprints)]

    def _fetch(self, i: int, ctx: dict) -> Optional[str]:
        client = ctx["client"]
        ctx["fetched"] = [
            (fp, client.compiled_schedule(fingerprint=fp))
            for fp in map(self._fingerprint, self.fetch_batches[i])
        ]
        return None

    def _fetch_staged(self, i: int, ctx: dict,
                      tracer: Tracer) -> Optional[str]:
        """``compiled_schedule`` split at the wire: the service's side
        (disk read → ladder → encode → HTTP), then the client's decode
        and re-verification."""
        client = ctx["client"]
        fetched = []
        for j, fp in enumerate(map(self._fingerprint, self.fetch_batches[i])):
            with tracer.span(f"wire/{i}/{j}", "server.fetch"):
                payload = client.schedule(fingerprint=fp)
            ctx["wire_bytes"] += len(payload["schedule_pickle"]) + len(
                payload["compiled_pickle"]
            )
            with tracer.span(f"decode/{i}/{j}", "server.client_decode"):
                schedule = pickle.loads(
                    base64.b64decode(payload["schedule_pickle"])
                )
                compiled = pickle.loads(
                    base64.b64decode(payload["compiled_pickle"])
                )
                compiled.verify(schedule)
            fetched.append((fp, (schedule, compiled)))
        ctx["fetched"] = fetched
        return None

    def _check_fetch(self, ctx: dict) -> Optional[str]:
        for fp, (schedule, compiled) in ctx.pop("fetched"):
            if schedule.fingerprint()[:16] != fp:
                return f"fetched schedule does not hash to {fp}"
            if compiled.source_fingerprint[:16] != fp:
                return f"fetched artifact was not compiled from {fp}"
        return None

    def _build(self, collective: str, algorithm: str, k: int,
               ctx: dict) -> Optional[str]:
        payload = ctx["client"].schedule(
            collective, algorithm, p=BUILD_P, k=k
        )
        if payload["p"] != BUILD_P or payload["k"] != k:
            return (f"asked for p={BUILD_P} k={k}, "
                    f"got p={payload['p']} k={payload['k']}")
        return None

    def _config(self, ctx: dict) -> Optional[str]:
        ctx["config"] = ctx["client"].config()
        return None

    def _check_config(self, ctx: dict) -> Optional[str]:
        if ctx.pop("config").to_json() != self.reference_json:
            return "/config differs from the grid artifact"
        return None

    def _metrics(self, ctx: dict) -> Optional[str]:
        ctx["client"].metrics()
        return None

    def _tune(self, ctx: dict) -> Optional[str]:
        reply = ctx["client"].tune(TUNED)
        if reply["outcome"] != "swept":
            return f"/tune outcome {reply['outcome']!r}"
        p = self.machine.nranks
        for n in SIZES:
            want = self.table.select(TUNED, p, n)
            got = reply["winners"][str(n)]
            if (got["algorithm"], got["k"]) != (want.algorithm, want.k):
                return f"/tune winner at n={n}: {got} != {want}"
        return None

    def _close(self, ctx: dict) -> Optional[str]:
        handle = ctx.pop("handle")
        handle.close()
        service = handle.service
        disk = [service.schedules.disk_stats(),
                service.compiled_cache.disk_stats()]
        ctx["store_hits"] = sum(s.hits for s in disk)
        ctx["store_lookups"] = sum(s.lookups for s in disk)
        return None

    # -- traced-only probes -------------------------------------------------

    def probes(self, ctx: dict, tracer: Tracer) -> None:
        """Direct calls into the two layers the service wraps."""
        from repro.store.disk import DiskStore

        p = self.machine.nranks
        for i, batch in enumerate(self.select_batches):
            with tracer.span(f"direct-select/{i}", "selection"):
                for collective, nbytes in batch:
                    self.table.select(collective, p, nbytes)
        store = DiskStore(self.store)
        keys = sorted(
            key for _path, key in store.keys_on_disk()
            if key and key.startswith("compiled/")
        )
        entries = list(self.store.joinpath("entries").iterdir())
        counts = {
            "wire_bytes": ctx["wire_bytes"],
            "index_keys": len(keys),
            "bytes_on_disk": sum(f.stat().st_size for f in entries),
            "hit_frac": ctx["store_hits"] / ctx["store_lookups"],
        }
        self.pin_counts(counts)
        for i, key in enumerate(keys[:24]):
            with tracer.span(f"store-get/{i}", "store.get"):
                payload = store.get(key)
            with tracer.span(f"store-put/{i}", "store.put"):
                store.put(f"perfbench/probe/{i}", payload)

    def layer_metrics(self, agg: TraceAggregate) -> Dict[str, float]:
        c = self.counts
        nselect = sum(len(b) for b in self.select_batches)
        served_us = agg.plain_s("select/") / nselect * 1e6
        direct_us = agg.layer_s("selection") / nselect * 1e6
        return {
            "selection.select_us": direct_us,
            "server.boot_ms": agg.plain_s("boot") * 1e3,
            "server.select_us": served_us,
            "server.http_overhead_us": served_us - direct_us,
            "server.fetch_ms": agg.layer_s("server.fetch") * 1e3,
            "server.fetch_build_ms": agg.plain_s("build/") * 1e3,
            "server.client_decode_ms":
                agg.layer_s("server.client_decode") * 1e3,
            "server.wire_bytes": c["wire_bytes"],
            "server.config_ms": agg.plain_s("config") * 1e3,
            "server.metrics_ms": agg.plain_s("metrics") * 1e3,
            "server.tune_ms": agg.plain_s("tune") * 1e3,
            "server.req_per_s": self.work / agg.plain_s(""),
            "server.select_p99_us":
                percentile(self.select_latencies, 0.99) * agg.scale * 1e6,
            "store.get_ms": agg.layer_s("store.get") * 1e3,
            "store.put_ms": agg.layer_s("store.put") * 1e3,
            "store.hit_frac": c["hit_frac"],
            "store.index_keys": c["index_keys"],
            "store.bytes_on_disk": c["bytes_on_disk"],
        }
