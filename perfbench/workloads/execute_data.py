"""``execute_data`` — real NumPy data through ``repro.execute(check=True)``.

``runtime`` and ``compile.program`` (bind, staging) do the work;
``simnet`` and ``bench.sweep`` do none.  It is the guard for the "one
schedule walker" consolidation (ROADMAP): five generalized algorithms ×
{small: 64 elements — step/walker-bound; large: 2¹⁵ elements — copy/
reduce-bound} × {``lockstep``, ``threaded``}, one unit per call.  The
seed draws the data; the calls and their order never change.

Checks: ``check=True`` passes inside every call; the two backends leave
bit-identical buffers for the same (algorithm, size).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..harness import TraceAggregate, Unit, Workload, table_bytes
from ..spans import Tracer

BACKENDS = ("lockstep", "threaded")
DTYPE = np.dtype(np.int64)


class Config(NamedTuple):
    collective: str
    algorithm: str
    k: int
    p: int

    @property
    def desc(self) -> str:
        return f"{self.collective}/{self.algorithm}/k={self.k}/p={self.p}"


FULL = [
    Config("allreduce", "recursive_multiplying", 4, 32),
    Config("allreduce", "kring", 4, 16),
    Config("allgather", "kring", 4, 16),
    Config("bcast", "knomial", 4, 64),
    Config("reduce", "knomial", 4, 64),
]
QUICK = [cfg._replace(p=16) for cfg in FULL]


class ExecuteData(Workload):
    name = "execute_data"
    work_unit = "computed payload MiB"

    def __init__(self, seed, quick, state_dir) -> None:
        super().__init__(seed, quick, state_dir)
        self.counts_of = {"small": 64, "large": 1 << 10 if quick else 1 << 15}
        pairs = [(cfg, size) for cfg in (QUICK if quick else FULL)
                 for size in self.counts_of]
        self.data_seed = random.Random(seed).randrange(1 << 30)
        self.pairs = pairs
        for cfg, size in pairs:
            for backend in BACKENDS:  # adjacent, so one buffer set is held
                self.units.append(Unit(
                    name=f"exec/{cfg.desc}/{size}/{backend}",
                    layer="unit",
                    run=partial(self._execute, cfg, size, backend),
                    staged=partial(self._execute_staged, cfg, size, backend),
                    after=partial(self._compare, cfg, size, backend),
                ))
        self.work = 0.0
        self.payload_mib: Dict[tuple, float] = {}

    def prepare(self) -> None:
        """Computed payload (bytes every send moves) per (config, size)."""
        import repro
        from repro.compile import get_or_compile

        for cfg, size in self.pairs:
            sched = repro.build(cfg.collective, cfg.algorithm,
                                p=cfg.p, k=cfg.k)
            bound = get_or_compile(sched).bind(
                sched.block_map(self.counts_of[size])
            )
            elements = sum(
                total for rank in bound.raw_steps
                for sends, _copies, _recvs in rank
                for _peer, _ranges, total in sends
            )
            self.payload_mib[(cfg, size)] = (
                elements * DTYPE.itemsize / (1 << 20)
            )
        self.work = len(BACKENDS) * sum(self.payload_mib.values())

    def begin_rep(self) -> dict:
        ctx = super().begin_rep()
        ctx["held"] = {}
        ctx["counts"] = dict.fromkeys(
            ("build_count", "ir_ops", "table_bytes"), 0
        )
        return ctx

    # -- units ----------------------------------------------------------

    def _execute(self, cfg: Config, size: str, backend: str,
                 ctx: dict) -> Optional[str]:
        import repro

        ctx["buffers"] = repro.execute(
            cfg.collective, cfg.algorithm, p=cfg.p,
            count=self.counts_of[size], k=cfg.k, backend=backend,
            check=True, seed=self.data_seed,
        ).buffers
        return None

    def _execute_staged(self, cfg: Config, size: str, backend: str,
                        ctx: dict, tracer: Tracer) -> Optional[str]:
        """``repro.execute`` unrolled: the same calls it makes, in its
        order, each under its layer's span."""
        import repro
        from repro.compile.cache import global_compiled_cache
        from repro.runtime import (
            check_outputs,
            execute,
            execute_threaded,
            initial_buffers,
            make_inputs,
            reference_result,
        )

        tag = f"{cfg.desc}/{size}/{backend}"
        count = self.counts_of[size]
        with tracer.span(f"build/{tag}", "core"):
            sched = repro.build(cfg.collective, cfg.algorithm,
                                p=cfg.p, k=cfg.k)
        with tracer.span(f"compile/{tag}", "compile"):
            compiled, hit = global_compiled_cache().get_or_compile(sched)
        ctx["counts"]["build_count"] += 1
        ctx["counts"]["ir_ops"] += compiled.total_ops()
        if not hit:
            ctx["counts"]["table_bytes"] += table_bytes(compiled)
        with tracer.span(f"bind/{tag}", "compile.bind"):
            compiled.bind(sched.block_map(count))
        with tracer.span(f"buffers/{tag}", "runtime.buffers"):
            inputs = make_inputs(
                cfg.collective, cfg.p, count, dtype=DTYPE,
                rng=np.random.default_rng(self.data_seed),
            )
            buffers = initial_buffers(sched, inputs, count, dtype=DTYPE)
        with tracer.span(f"run/{tag}", f"runtime.{backend}.{size}"):
            if backend == "lockstep":
                execute(sched, buffers)
            else:
                execute_threaded(sched, buffers)
        with tracer.span(f"reference/{tag}", "runtime.buffers"):
            expected = reference_result(cfg.collective, inputs, count)
        with tracer.span(f"check/{tag}", "runtime.check"):
            check_outputs(sched, buffers, expected, count)
        ctx["buffers"] = buffers
        return None

    def _compare(self, cfg: Config, size: str, backend: str,
                 ctx: dict) -> Optional[str]:
        """Second backend of a pair: buffers must equal the first's."""
        buffers = ctx.pop("buffers")
        first = ctx["held"].pop((cfg, size), None)
        if first is None:
            ctx["held"][(cfg, size)] = buffers
            return None
        if not all(np.array_equal(a, b) for a, b in zip(first, buffers)):
            return f"{backend} buffers differ from the other backend's"
        return None

    def check_rep(self, ctx: dict) -> List[str]:
        if ctx["held"]:
            return [f"unpaired backend runs: {sorted(map(str, ctx['held']))}"]
        return []

    def probes(self, ctx: dict, tracer: Tracer) -> None:
        self.pin_counts(ctx["counts"])

    def layer_metrics(self, agg: TraceAggregate) -> Dict[str, float]:
        c = self.counts
        run = {
            (backend, size): agg.layer_s(f"runtime.{backend}.{size}")
            for backend in BACKENDS for size in self.counts_of
        }
        lockstep = run["lockstep", "small"] + run["lockstep", "large"]
        threaded = run["threaded", "small"] + run["threaded", "large"]
        return {
            "core.build_ms": agg.layer_s("core") * 1e3,
            "core.build_count": c["build_count"],
            "core.ir_ops": c["ir_ops"],
            "compile.lower_verify_ms": agg.layer_s("compile") * 1e3,
            "compile.table_bytes": c["table_bytes"],
            "compile.bind_ms": agg.layer_s("compile.bind") * 1e3,
            "runtime.lockstep_small_ms": run["lockstep", "small"] * 1e3,
            "runtime.lockstep_large_ms": run["lockstep", "large"] * 1e3,
            "runtime.threaded_small_ms": run["threaded", "small"] * 1e3,
            "runtime.threaded_large_ms": run["threaded", "large"] * 1e3,
            "runtime.check_ms": agg.layer_s("runtime.check") * 1e3,
            "runtime.payload_mb_per_s": self.work / (lockstep + threaded),
            "runtime.threaded_over_lockstep": threaded / lockstep,
        }
