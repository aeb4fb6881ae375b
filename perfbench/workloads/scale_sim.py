"""``scale_sim`` — single large-p ``repro.simulate`` calls.

``compile.classes``, ``simnet.collapsed`` and ``core.lazy`` do most of
the work here and none in ``tune_cold`` (``engine="auto"`` never
collapses below p = 256).  Three groups, two units per configuration —
the first call pays lookup/build + compile + classify + engine, the
second (another size, same residue) only the engine.  The seed draws the
per-rank byte counts, so simulated times differ from seed to seed while
the messages simulated — the work — do not:

* *lazy-collapsed*: generator schedules that never materialize p rank
  programs (recursive doubling to p = 2²⁰, the three ring families);
* *built-then-collapsed*: a registry-built butterfly that class
  analysis collapses to one class under ``engine="auto"``;
* *materialized*: k-nomial trees whose partitions do not collapse
  today (every rank its own class), so ``auto`` pays classification and
  then the full DES.  Sized to 50–65 % of the cycle: this half is where
  "finish the collapse" (ROADMAP) will land; the collapsed half guards
  the existing fast path.

Checks: every simulated time equals the first repetition's exactly; a
set ``SimResult.fallback``, or a materialized run where the cycle
declares collapse, fails the unit; in preparation, collapsed ≡
materialized on the same families at p = 64.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, List, NamedTuple, Optional

from ..harness import TraceAggregate, Unit, Workload, table_bytes
from ..spans import Tracer


class Config(NamedTuple):
    kind: str           # "lazy" | "collapsed" | "materialized"
    collective: str
    algorithm: str
    k: Optional[int]
    p: int

    @property
    def desc(self) -> str:
        k = "" if self.k is None else f"/k={self.k}"
        return f"{self.collective}/{self.algorithm}{k}/p={self.p}"

    @property
    def engine(self) -> str:
        """The engine this configuration is declared to run on."""
        return "materialized" if self.kind == "materialized" else "collapsed"


FULL = [
    Config("lazy", "allreduce", "recursive_doubling", None, 1 << 16),
    Config("lazy", "allreduce", "recursive_doubling", None, 1 << 18),
    Config("lazy", "allreduce", "recursive_doubling", None, 1 << 20),
    Config("lazy", "allreduce", "ring", None, 512),
    Config("lazy", "allgather", "ring", None, 512),
    Config("lazy", "reduce_scatter", "ring", None, 512),
    Config("collapsed", "allreduce", "recursive_multiplying", 2, 256),
    Config("materialized", "bcast", "knomial", 4, 512),
    Config("materialized", "reduce", "knomial", 8, 512),
    Config("materialized", "bcast", "knomial", 4, 256),
    Config("materialized", "reduce", "knomial", 8, 256),
    Config("materialized", "allreduce", "knomial", 4, 256),
]

QUICK = [
    Config("lazy", "allreduce", "recursive_doubling", None, 1 << 12),
    Config("lazy", "allreduce", "ring", None, 256),
    Config("lazy", "allgather", "ring", None, 256),
    Config("lazy", "reduce_scatter", "ring", None, 256),
    Config("collapsed", "allreduce", "recursive_multiplying", 2, 256),
    Config("materialized", "bcast", "knomial", 4, 256),
    Config("materialized", "reduce", "knomial", 8, 256),
    Config("materialized", "allreduce", "knomial", 4, 256),
]

#: Bytes per rank for the first and second call of a configuration are
#: drawn from these ranges (×8).  Totals are multiples of p, so both
#: calls share one block-size residue and the second reuses the first's
#: class partition.
PER_RANK_WORDS = {"first": (4, 16), "second": (256, 1024)}


def _schedule(cfg: Config, p: Optional[int] = None):
    import repro
    from repro.core.lazy import lookup

    p = cfg.p if p is None else p
    if cfg.kind == "lazy":
        return lookup(cfg.collective, cfg.algorithm, p)
    return repro.build(cfg.collective, cfg.algorithm, p=p, k=cfg.k)


class ScaleSim(Workload):
    name = "scale_sim"
    work_unit = "simulated messages"

    def __init__(self, seed, quick, state_dir) -> None:
        super().__init__(seed, quick, state_dir)
        from repro.simnet.machines import reference

        self.configs = list(QUICK if quick else FULL)
        rng = random.Random(seed)
        self.per_rank = {
            (cfg, which): 8 * rng.randrange(*PER_RANK_WORDS[which])
            for cfg in self.configs for which in ("first", "second")
        }
        self.machines = {c.p: reference(c.p) for c in self.configs}
        for cfg in self.configs:
            for which in ("first", "second"):
                self.units.append(Unit(
                    name=f"{which}/{cfg.desc}",
                    layer="unit",
                    run=partial(self._simulate, cfg, which),
                    staged=partial(self._simulate_staged, cfg, which),
                ))
        self.work = 0.0
        self.reference_times: Dict[str, float] = {}

    def prepare(self) -> None:
        """Collapsed ≡ materialized on every family of the cycle, p = 64."""
        import repro
        from repro.simnet.machines import reference

        machine = reference(64)
        for cfg in self.configs:
            sched = _schedule(cfg, 64)
            nbytes = 64 * self.per_rank[cfg, "first"]
            a = repro.simulate(sched, machine, nbytes=nbytes,
                               engine="collapsed")
            b = repro.simulate(sched, machine, nbytes=nbytes,
                               engine="materialized")
            if a.fallback is not None:
                raise AssertionError(
                    f"{cfg.desc} at p=64: collapsed engine fell back "
                    f"({a.fallback})"
                )
            if (a.time, list(a.rank_times), a.messages) != (
                b.time, list(b.rank_times), b.messages
            ):
                raise AssertionError(
                    f"{cfg.desc} at p=64: collapsed != materialized"
                )

    def begin_rep(self) -> dict:
        ctx = super().begin_rep()
        ctx["schedules"] = {}
        ctx["messages"] = 0
        ctx["counts"] = dict.fromkeys(
            ("build_count", "ir_ops", "table_bytes", "nclasses",
             "fallbacks", "collapsed_msgs", "materialized_msgs"), 0,
        )
        return ctx

    # -- units ----------------------------------------------------------

    def _verdict(self, cfg: Config, which: str, ctx: dict,
                 res) -> Optional[str]:
        name = f"{which}/{cfg.desc}"
        ctx["messages"] += res.messages
        ctx["counts"][f"{cfg.engine}_msgs"] += res.messages
        if res.fallback is not None:
            ctx["counts"]["fallbacks"] += 1
            return f"unexpected engine fallback: {res.fallback}"
        if cfg.engine == "collapsed" and res.engine != "collapsed":
            ctx["counts"]["fallbacks"] += 1
            return f"declared collapsed but ran on {res.engine}"
        if self.reference_times.setdefault(name, res.time) != res.time:
            return (f"simulated time {res.time!r} != first repetition's "
                    f"{self.reference_times[name]!r}")
        return None

    def _simulate(self, cfg: Config, which: str, ctx: dict) -> Optional[str]:
        import repro

        if which == "first":
            ctx["schedules"][cfg] = _schedule(cfg)
        res = repro.simulate(
            ctx["schedules"][cfg], self.machines[cfg.p],
            nbytes=cfg.p * self.per_rank[cfg, which],
        )
        return self._verdict(cfg, which, ctx, res)

    def _simulate_staged(self, cfg: Config, which: str, ctx: dict,
                         tracer: Tracer) -> Optional[str]:
        """The call one layer at a time; the closing ``repro.simulate``
        then finds every cache warm and spends its time in the engine."""
        import repro
        from repro.compile import get_or_classify
        from repro.compile.cache import global_compiled_cache
        from repro.errors import ClassAnalysisError

        machine = self.machines[cfg.p]
        nbytes = cfg.p * self.per_rank[cfg, which]
        counts = ctx["counts"]
        if which == "first" and cfg.kind == "lazy":
            with tracer.span(f"lookup/{cfg.desc}", "core.lazy"):
                sched = _schedule(cfg)
                sched.classes(machine, nbytes)
            ctx["schedules"][cfg] = sched
        elif which == "first":
            with tracer.span(f"build/{cfg.desc}", "core"):
                sched = _schedule(cfg)
            ctx["schedules"][cfg] = sched
            with tracer.span(f"compile/{cfg.desc}", "compile"):
                compiled, _hit = global_compiled_cache().get_or_compile(sched)
            counts["build_count"] += 1
            counts["ir_ops"] += compiled.total_ops()
            counts["table_bytes"] += table_bytes(compiled)
            with tracer.span(f"classify/{cfg.desc}", "compile.classify"):
                try:
                    counts["nclasses"] += get_or_classify(
                        sched, machine, nbytes
                    ).nclasses
                except ClassAnalysisError:
                    pass  # simulate() takes the same exit to materialized
        with tracer.span(f"engine/{which}/{cfg.desc}",
                         f"simnet.{cfg.engine}"):
            res = repro.simulate(ctx["schedules"][cfg], machine,
                                 nbytes=nbytes)
        return self._verdict(cfg, which, ctx, res)

    def check_rep(self, ctx: dict) -> List[str]:
        if self.work and self.work != ctx["messages"]:
            return [f"message count moved: {self.work} -> {ctx['messages']}"]
        self.work = float(ctx["messages"])
        return []

    def probes(self, ctx: dict, tracer: Tracer) -> None:
        self.pin_counts(ctx["counts"])

    def layer_metrics(self, agg: TraceAggregate) -> Dict[str, float]:
        c = self.counts
        collapsed = agg.layer_s("simnet.collapsed")
        materialized = agg.layer_s("simnet.materialized")
        mat_units = sum(
            agg.plain_s(f"{which}/{cfg.desc}")
            for cfg in self.configs if cfg.kind == "materialized"
            for which in ("first", "second")
        )
        return {
            "core.build_ms": agg.layer_s("core") * 1e3,
            "core.build_count": c["build_count"],
            "core.ir_ops": c["ir_ops"],
            "core.lazy_lookup_ms": agg.layer_s("core.lazy") * 1e3,
            "compile.lower_verify_ms": agg.layer_s("compile") * 1e3,
            "compile.table_bytes": c["table_bytes"],
            "compile.classify_ms": agg.layer_s("compile.classify") * 1e3,
            "compile.nclasses": c["nclasses"],
            "simnet.collapsed_ms": collapsed * 1e3,
            "simnet.collapsed_msgs_per_s": c["collapsed_msgs"] / collapsed,
            "simnet.materialized_ms": materialized * 1e3,
            "simnet.materialized_msgs_per_s":
                c["materialized_msgs"] / materialized,
            "simnet.materialized_share": mat_units / agg.plain_s(""),
            "simnet.fallbacks": c["fallbacks"],
        }
