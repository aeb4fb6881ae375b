"""Compile the hot path: flat program tables for every backend.

Interpreting the schedule IR per executed op (``isinstance`` dispatch,
per-block offset arithmetic, per-payload allocation) is the dominant cost
of small-message execution.  A built
:class:`~repro.core.schedule.Schedule` is already flat, preresolved
tables — its sealed op/peer/segment/step columns — and binding it
against a block geometry (:meth:`~repro.core.schedule.Schedule.bind`,
a memo on the schedule) gives the action tuples that are the only
representation any data path walks: the lockstep runner walks them
cooperatively, one blocking per-rank walker (:func:`run_compiled_rank`)
serves every thread of the threaded transport and every
:class:`~repro.runtime.session.Session` collective call.  The simulator
reads no compiled table either: its plan is the schedule's own
(:meth:`~repro.core.schedule.Schedule.sim_plan`), and a class plan comes
from :mod:`repro.compile.classes`, which classifies the schedule itself.
What is left of the compiled artifact (:class:`CompiledSchedule`, the
schedule's columns under its labels) is the tuning service's wire
payload and the compiled store tier.

Pipeline::

    Schedule ──.bind(block_map)──▶ BoundSchedule (tuples; memo, never pickled)
                                      │
                        executors' tight loops

    Schedule ──compile_schedule──▶ CompiledSchedule (wire + store tier only)

    Schedule ─────────.sim_plan()───▶ SimPlan (ranks; memo, never pickled)
    Schedule ──────────classify─────▶ RankClasses (cached by columns digest)
    RankClasses ──────.plan─────────▶ SimPlan (class representatives)
                                      │
                              simulator kernel's table

Both plans come from one builder, :func:`~repro.core.schedule.
build_sim_plan`, whose actor programs are CSR arrays (``codes``,
``bounds``, ``first``).

Guarantees, in order of importance:

* **Transparency.**  Compiled execution is bit-identical to the
  op-by-op reference interpreter (the test oracle, ``tests/oracle.py``)
  — result buffers and failure surfaces — and the simulator plan equals
  ``match_messages`` and the IR's op stream, pinned by the differential
  suite
  (``tests/properties/test_compile_transparency.py``) across the full
  registry grid and under fault injection.  Both read one FIFO matching,
  :meth:`~repro.core.schedule.Schedule.messages`.
* **One table layout.**  A lowered artifact *is* its schedule's
  read-only :class:`~repro.core.schedule.Columns` — nothing is copied,
  so nothing can drift.  An artifact that arrives as bytes (a disk-tier
  load, a ``TuningClient`` fetch) is checked column by column against
  its schedule (:mod:`repro.compile.verify`); corrupt tables raise
  :class:`~repro.errors.CompileError` with rank/step-naming diagnostics
  instead of executing wrong (held to by the mutation corpus in
  ``tests/test_compile_mutations.py``).  The tables' independent
  re-derivation from the test oracle's op objects (``tests/oracle.py``)
  is a tier-1 test reference.
* **One step numbering.**  The tables keep the schedule's own step
  boundaries and nothing else, so a step index means the same thing to
  the IR, the runners, fault plans, heartbeats and the simulator.
* **Content-addressed caching.**  Artifacts are cached in process and
  (optionally) on disk next to their schedules (:mod:`repro.compile.cache`),
  keyed by the source schedule's fingerprint; disk loads are verified
  and quarantine on failure.  No executor looks an artifact up.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    "ClassAnalysisError": "..errors",
    "CompileError": "..errors",
    "CompiledCache": ".cache",
    "compiled_store_key": ".cache",
    "get_or_classify": ".cache",
    "get_or_compile": ".cache",
    "global_compiled_cache": ".cache",
    "open_compiled_store": ".cache",
    "RankClasses": ".classes",
    "classify": ".classes",
    "machine_asymmetry": ".classes",
    "partition_key": ".classes",
    "compile_schedule": ".lower",
    "OP_COPY": "..core.schedule",
    "OP_RECV": "..core.schedule",
    "OP_REDUCE_RECV": "..core.schedule",
    "OP_SEND": "..core.schedule",
    "OP_NAMES": ".program",
    "BoundSchedule": "..core.schedule",
    "CompiledProgram": ".program",
    "CompiledSchedule": ".program",
    "StagingPool": ".program",
    "run_compiled_lockstep": ".runner",
    "run_compiled_rank": ".runner",
    "verify_compiled": ".verify",
})

__all__ = [
    "OP_SEND",
    "OP_RECV",
    "OP_REDUCE_RECV",
    "OP_COPY",
    "OP_NAMES",
    "CompiledProgram",
    "CompiledSchedule",
    "BoundSchedule",
    "StagingPool",
    "compile_schedule",
    "verify_compiled",
    "run_compiled_lockstep",
    "run_compiled_rank",
    "CompileError",
    "CompiledCache",
    "global_compiled_cache",
    "get_or_compile",
    "compiled_store_key",
    "open_compiled_store",
    "ClassAnalysisError",
    "RankClasses",
    "classify",
    "machine_asymmetry",
    "partition_key",
    "get_or_classify",
]
