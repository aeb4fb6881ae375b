"""``tune_cold`` — cold, in-memory, serial ``tune → selection config``.

The ROADMAP headline in miniature: every registered algorithm of the
four tuned collectives, every radix on the tuner's own grid, a small
and a large message size, on a 16-rank Frontier-shaped machine with 4
ranks per node (so intranode links matter, as in the paper's Fig. 8c).
``core`` builders, ``compile``, the materialized DES and ``bench.sweep``
orchestration do nearly all the work; no store, no server.

Units: the tuner's point grid sliced by (collective, algorithm, nbytes)
— one ``sweep_collective(c, m, [n], algorithms=[a])`` call each — plus
one final ``config_from_sweeps`` + ``to_json`` unit.  The seed draws the
two message sizes (one near 1 KiB — latency-bound — and one near 1 MiB —
bandwidth-bound), so every seed tunes a different grid to a different
config; the number and order of points — the work — never change.
Check: the per-slice sweeps, merged back in the tuner's enumeration
order, export a config byte-identical to one ``build_config()`` call
made in preparation.

It is a stated proxy: ``frontier-128x8`` (the ROADMAP machine) is out
of reach of a 30-second run on a 2-core box — see README.md for the
128-rank measurement.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..harness import TraceAggregate, Unit, Workload, table_bytes
from ..spans import Tracer

Slice = Tuple[str, str, int]  # (collective, algorithm, nbytes)


class TuneCold(Workload):
    name = "tune_cold"
    work_unit = "sweep points"

    def __init__(self, seed, quick, state_dir) -> None:
        super().__init__(seed, quick, state_dir)
        from repro.selection.tuner import DEFAULT_COLLECTIVES, sweep_points
        from repro.simnet.machines import resolve

        self.machine = resolve("frontier-2x4" if quick else "frontier-4x4")
        rng = random.Random(seed)
        self.sizes = [
            8 * rng.randrange(centre // 16, centre // 4)  # centre/2..2·centre
            for centre in (1024, 1 << 20)
        ]
        self.points = {
            c: sweep_points(c, self.machine, self.sizes)
            for c in DEFAULT_COLLECTIVES
        }
        slices: List[Slice] = []
        self.slice_points: Dict[Slice, list] = {}
        for c, pts in self.points.items():
            for pt in pts:
                key = (c, pt.algorithm, pt.nbytes)
                if key not in self.slice_points:
                    self.slice_points[key] = []
                    slices.append(key)
                self.slice_points[key].append(pt)
        self.work = float(sum(len(p) for p in self.points.values()))
        self.units = [
            Unit(
                name=f"sweep/{c}/{a}/{n}",
                layer="unit",
                run=partial(self._sweep, (c, a, n)),
                staged=partial(self._sweep_staged, (c, a, n)),
            )
            for c, a, n in slices
        ]
        self.units.append(Unit(
            name="distill", layer="unit",
            run=self._distill, staged=self._distill_staged,
        ))
        self.reference_json: Optional[str] = None
        self._messages: Dict[Tuple, int] = {}  # per built schedule

    def prepare(self) -> None:
        from repro.server.config import build_config

        self.reference_json = build_config(
            self.machine, self.sizes
        ).to_json()

    def begin_rep(self) -> dict:
        ctx = super().begin_rep()
        ctx["sweeps"] = {}
        ctx["counts"] = dict.fromkeys(
            ("points", "build_hits", "build_count", "ir_ops", "table_bytes",
             "messages", "sim_hits", "config_bytes"), 0,
        )
        return ctx

    # -- units ----------------------------------------------------------

    def _sweep(self, key: Slice, ctx: dict) -> Optional[str]:
        from repro.selection.tuner import sweep_collective

        c, a, n = key
        ctx["sweeps"][key] = sweep_collective(
            c, self.machine, [n], algorithms=[a]
        ).entries
        return None

    def _sweep_staged(self, key: Slice, ctx: dict,
                      tracer: Tracer) -> Optional[str]:
        """The slice, one layer at a time: build → compile → DES per
        point, then the sweep engine's replay of the now-memoized slice
        (whose results feed the distill check, as in the plain unit)."""
        from repro.bench.sweep import run_sweep, simulate_point
        from repro.compile.cache import global_compiled_cache
        from repro.core.cache import global_schedule_cache
        from repro.selection.table import Choice
        from repro.selection.tuner import SweepEntry

        c, a, n = key
        counts = ctx["counts"]
        pts = self.slice_points[key]
        p = self.machine.nranks
        for pt in pts:
            tag = f"{c}/{a}/k={pt.k}/n={n}"
            with tracer.span(f"build/{tag}", "core"):
                sched, hit = global_schedule_cache().get_or_build(
                    c, a, p, k=pt.k, root=pt.root
                )
            sched_key = (c, a, pt.k)
            if not hit:
                # A schedule already built this repetition is already
                # compiled; the DES call below then pays the compiled
                # cache's lookup itself, exactly as in the plain unit.
                with tracer.span(f"compile/{tag}", "compile"):
                    compiled, chit = (
                        global_compiled_cache().get_or_compile(sched)
                    )
                if sched_key not in self._messages:
                    self._messages[sched_key] = sched.stats().messages
                counts["build_count"] += 1
                counts["ir_ops"] += compiled.total_ops()
                if not chit:
                    counts["table_bytes"] += table_bytes(compiled)
            with tracer.span(f"des/{tag}", "simnet"):
                res = simulate_point(self.machine, pt)
            if res.error is not None:
                return f"{tag}: {res.error}"
            counts["points"] += 1
            counts["build_hits"] += hit
            counts["sim_hits"] += res.sim_hit
            counts["messages"] += self._messages[sched_key]
        with tracer.span(f"replay/{c}/{a}/{n}", "bench.sweep.replay"):
            replay = run_sweep(pts, self.machine)
        counts["points"] += len(replay)
        counts["sim_hits"] += sum(r.sim_hit for r in replay)
        ctx["sweeps"][key] = [
            SweepEntry(Choice(r.point.algorithm, r.point.k),
                       r.point.nbytes, r.time)
            for r in replay
        ]
        return None

    def _merged(self, ctx: dict):
        """Per-slice entries back in the tuner's enumeration order."""
        from repro.selection.tuner import SweepResult

        merged = {}
        for c, pts in self.points.items():
            by_point = {
                (e.choice.algorithm, e.choice.k, e.nbytes): e
                for (cc, _a, _n), entries in ctx["sweeps"].items()
                if cc == c for e in entries
            }
            merged[c] = SweepResult(
                collective=c, machine=self.machine.name,
                entries=[by_point[(pt.algorithm, pt.k, pt.nbytes)]
                         for pt in pts],
            )
        return merged

    def _distill(self, ctx: dict) -> Optional[str]:
        from repro.server.config import config_from_sweeps

        ctx["config_json"] = config_from_sweeps(
            self.machine, self.sizes, self._merged(ctx)
        ).to_json()
        return None

    def _distill_staged(self, ctx: dict, tracer: Tracer) -> Optional[str]:
        from repro.server.config import config_from_sweeps

        merged = self._merged(ctx)
        with tracer.span("distill/config_from_sweeps", "selection"):
            cfg = config_from_sweeps(self.machine, self.sizes, merged)
        with tracer.span("export/to_json", "server.config"):
            ctx["config_json"] = cfg.to_json()
        ctx["counts"]["config_bytes"] = len(ctx["config_json"].encode())
        return None

    def check_rep(self, ctx: dict) -> List[str]:
        if ctx.get("config_json") != self.reference_json:
            return ["merged config differs from build_config() reference"]
        return []

    def probes(self, ctx: dict, tracer: Tracer) -> None:
        self.pin_counts(ctx["counts"])

    def layer_metrics(self, agg: TraceAggregate) -> Dict[str, float]:
        c = self.counts
        build = agg.layer_s("core")
        lower = agg.layer_s("compile")
        des = agg.layer_s("simnet")
        sweep_cycle = agg.plain_s("sweep/")
        cold_points = c["points"] / 2  # each point ran cold, then replayed
        return {
            "core.build_ms": build * 1e3,
            "core.build_count": c["build_count"],
            "core.ir_ops": c["ir_ops"],
            "compile.lower_verify_ms": lower * 1e3,
            "compile.table_bytes": c["table_bytes"],
            "simnet.des_ms": des * 1e3,
            "simnet.messages": c["messages"],
            "simnet.msgs_per_s": c["messages"] / des,
            "bench.sweep.overhead_ms": (sweep_cycle - build - lower - des)
            * 1e3,
            "bench.sweep.memo_replay_ms":
                agg.layer_s("bench.sweep.replay") * 1e3,
            "bench.sweep.build_hit_frac": c["build_hits"] / cold_points,
            "bench.sweep.sim_hit_frac": c["sim_hits"] / c["points"],
            "bench.sweep.points_per_s": cold_points / sweep_cycle,
            "selection.distill_ms": agg.layer_s("selection") * 1e3,
            "server.config.export_ms": agg.layer_s("server.config") * 1e3,
            "server.config.bytes": c["config_bytes"],
        }
