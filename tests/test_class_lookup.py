"""The collapsed path keys and classifies the schedule it holds.

:func:`~repro.compile.classes.classify` reads a
:class:`~repro.core.schedule.Schedule`'s columns, FIFO matching,
``nranks`` and ``nblocks``; the partition cache key is
``(Schedule.columns_digest(), link profile, nbytes % nblocks)``; and
:func:`~repro.compile.classes.rank_classes`, the one lookup ``simulate``
makes, runs the machine checks before the cache.  These tests pin:

* a cold collapsed ``simulate`` hashes no schedule text and touches no
  compiled artifact;
* the partitions are the ones classifying the compiled artifact gave
  (``tests/golden/class_partitions.json``, written by that code over
  the registry grid at p ∈ {16, 64} and read, never regenerated);
* equal keys give equal partitions;
* a warm cache refuses every machine a cold ``classify`` refuses;
* ``Columns.signatures`` is derived on read, equal to the sends'
  payloads, and neither a build nor a load derives it.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

import pytest

import repro
from repro.compile.cache import (
    clear_class_cache, get_or_classify, global_compiled_cache,
)
from repro.compile.classes import classify, partition_key, rank_classes
from repro.core.registry import build_schedule
from repro.core.schedule import Columns, Schedule
from repro.errors import ClassAnalysisError
from repro.simnet.machines import frontier, reference

from oracle import SendOp, programs_of
from test_classes import _dragonfly
from test_registry import registry_grid

PARENT = json.loads(
    (Path(__file__).parent / "golden" / "class_partitions.json").read_text()
)


@pytest.fixture
def cold():
    """Empty partition, compiled and schedule caches around a test."""
    from repro.core.cache import global_schedule_cache

    clears = (clear_class_cache, global_compiled_cache().clear,
              global_schedule_cache().clear)
    for clear in clears:
        clear()
    yield
    for clear in clears:
        clear()


def _machines(p, nblocks):
    """The two collapsible machines of the grid and a byte count for
    each: a residue that splits the blocks into large and small on the
    reference, one large block on the dragonfly."""
    return (("reference", reference(p), 64 * nblocks + nblocks // 2),
            ("dragonfly", _dragonfly(p), 64 * nblocks + 1))


@pytest.mark.parametrize("coll, alg, k", [
    ("allreduce", "recursive_multiplying", 2),
    ("allgather", "kring", 4),
])
def test_cold_collapsed_simulate_hashes_and_compiles_nothing(
    monkeypatch, cold, coll, alg, k
):
    hashed = []
    fingerprint = Schedule.fingerprint

    def counting_fingerprint(self):
        hashed.append(self.describe())
        return fingerprint(self)

    schedule = build_schedule(coll, alg, 256, k=k)
    monkeypatch.setattr(Schedule, "fingerprint", counting_fingerprint)
    compiled = global_compiled_cache()
    before = compiled.stats().lookups
    result = repro.simulate(schedule, reference(256), nbytes=65536,
                            engine="auto")
    assert result.engine == "collapsed"
    assert hashed == []
    assert compiled.stats().lookups - before == 0
    assert len(compiled) == 0


@pytest.mark.parametrize("p", [16, 64])
def test_partitions_equal_the_compiled_artifacts(p):
    """Labels, sizes and class plan digest (or the refusal text) of
    every grid point, hashed per registry entry and machine, equal what
    ``classify(compile_schedule(schedule))`` gave."""
    hashes = {}
    for entry, k, root in registry_grid(p):
        schedule = entry.build(p, k=k, root=root)
        for name, machine, nbytes in _machines(p, schedule.nblocks):
            h = hashes.setdefault(
                f"p={p}/{name}/{entry.collective}/{entry.name}",
                hashlib.sha256(),
            )
            h.update(f"{k}|{root}|".encode())
            try:
                c = classify(schedule, machine, nbytes)
                h.update(c.labels.astype("<i4").tobytes() + b"|"
                         + c.sizes.astype("<i8").tobytes() + b"|"
                         + c.plan.digest())
            except ClassAnalysisError as exc:
                h.update(f"error:{exc}".encode())
            h.update(b";")
    got = {key: h.hexdigest() for key, h in hashes.items()}
    want = {key: v for key, v in PARENT.items()
            if key.startswith(f"p={p}/")}
    assert got.keys() == want.keys()
    assert [key for key in want if got[key] != want[key]] == []


def _partition(c):
    return c.labels.tolist(), c.sizes.tolist(), c.plan.digest()


@pytest.mark.parametrize("p", [8, 16])
def test_equal_keys_give_equal_partitions(p):
    """Every grid point at two sizes on both machines, plus a relabeled
    and a reloaded copy of each schedule: points that share a key share
    the partition — degenerate radices, copies and sizes of one residue
    alias at every p."""
    seen = {}
    shared = 0
    for entry, k, root in registry_grid(p):
        schedule = entry.build(p, k=k, root=root)
        copies = (schedule, schedule.relabel(algorithm="renamed"),
                  pickle.loads(pickle.dumps(schedule)))
        for _, machine, nbytes in _machines(p, schedule.nblocks):
            for sched in copies:
                for size in (nbytes, nbytes + 7 * schedule.nblocks):
                    key = partition_key(sched, machine, size)
                    got = _partition(classify(sched, machine, size))
                    if key in seen:
                        shared += 1
                        assert got == seen[key], (entry.name, k, root)
                    else:
                        seen[key] = got
    assert shared


def test_the_key_reads_content_not_labels():
    schedule = build_schedule("allreduce", "kring", 8, k=4)
    machine = reference(8)
    twin = schedule.relabel(algorithm="renamed", k=None)
    assert twin.fingerprint() != schedule.fingerprint()
    assert (partition_key(twin, machine, 64)
            == partition_key(schedule, machine, 64))
    other = build_schedule("allreduce", "kring", 8, k=2)
    assert (partition_key(other, machine, 64)
            != partition_key(schedule, machine, 64))
    assert (partition_key(schedule, machine, 64)
            != partition_key(schedule, _dragonfly(8), 64))


@pytest.mark.parametrize("refused", [
    frontier(32, 1),
    frontier(32, 2, dragonfly_groups=False),
], ids=["global-channel-pools", "two-ranks-per-node"])
@pytest.mark.parametrize("lookup", [rank_classes, get_or_classify],
                         ids=["rank_classes", "get_or_classify"])
def test_warm_cache_refuses_what_a_cold_classify_refuses(cold, lookup,
                                                         refused):
    """Both machines share the link profile (32, 16) of a pool-less
    32-node dragonfly whose partition is cached first."""
    from repro.compile.classes import link_profile

    schedule = build_schedule("allgather", "ring", 32)
    hosted = frontier(32, 1, dragonfly_groups=False)
    assert link_profile(refused) == link_profile(hosted)
    with pytest.raises(ClassAnalysisError) as cold_error:
        classify(schedule, refused, 4096)
    assert lookup(schedule, hosted, 4096).nclasses == 16
    with pytest.raises(ClassAnalysisError) as warm_error:
        lookup(schedule, refused, 4096)
    assert str(warm_error.value) == str(cold_error.value)


@pytest.mark.parametrize("p", [5, 8])
def test_signatures_on_read_equal_the_send_payloads(p):
    """On the builder grid, for a fresh and a reloaded schedule: the
    distinct block tuples of the oracle's send ops."""
    for entry, k, root in registry_grid(p):
        schedule = entry.build(p, k=k, root=root)
        want = frozenset(
            op.blocks
            for prog in programs_of(schedule) for step in prog.steps
            for op in step.ops if isinstance(op, SendOp)
        )
        loaded = pickle.loads(pickle.dumps(schedule))
        assert schedule.columns().signatures == want, schedule.describe()
        assert loaded.columns().signatures == want, schedule.describe()


def test_build_load_and_collapse_derive_no_signatures(monkeypatch, cold):
    read = []
    signatures = Columns.signatures

    def counting(self):
        read.append(len(self.kinds))
        return signatures.fget(self)

    monkeypatch.setattr(Columns, "signatures", property(counting))
    schedule = build_schedule("allreduce", "recursive_multiplying", 256, k=2)
    loaded = pickle.loads(pickle.dumps(schedule))
    assert repro.simulate(loaded, reference(256), nbytes=4096,
                          engine="collapsed").engine == "collapsed"
    assert read == []
