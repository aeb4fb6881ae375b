"""The durable store's never-crash contract, damage mode by damage mode.

Every way an entry can be wrong — truncated, bit-flipped (including
flips that break UTF-8 decoding, not just the checksum), wrong format
version, mis-filed key, crash-orphaned temp file, blob that decodes
to the wrong schedule or compiled program — must read as a *miss with
evidence*: the lookup returns ``None``, the damaged file moves to
``quarantine/``, and the next ``get_or_build`` / ``get_or_compile``
heals the store by write-through.  The hypothesis property drives the
same contract with arbitrary byte damage at arbitrary offsets.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from repro.compile import compile_schedule
from repro.compile.cache import compiled_store_key, open_compiled_store
from repro.core.cache import schedule_key
from repro.core.registry import build_schedule
from repro.errors import StoreError
from repro.server import TuningService
from repro.simnet.machines import reference
from repro.store import (
    FORMAT_VERSION,
    DiskStore,
    open_schedule_store,
    schedule_store_key,
)

PAYLOAD = {"alpha": 1, "blob": "x" * 64, "nested": {"k": [1, 2, 3]}}


@pytest.fixture
def store(tmp_path):
    return DiskStore(tmp_path / "store")


def test_roundtrip_and_miss(store):
    assert store.get("absent") is None
    path = store.put("key-1", PAYLOAD)
    assert path.exists()
    assert store.get("key-1") == PAYLOAD
    assert "key-1" in store
    assert len(store) == 1
    stats = store.stats()
    assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)


def test_keys_may_contain_anything(store):
    key = "schedule/allreduce/knomial/p=8/k=2/root=0 \n\t🚀"
    store.put(key, PAYLOAD)
    assert store.get(key) == PAYLOAD


def _assert_quarantined_miss(store, key, reason_fragment):
    """The damaged entry reads as a miss and lands in quarantine."""
    assert store.get(key) is None
    quarantined = store.quarantined()
    assert quarantined, "damage must leave evidence in quarantine/"
    assert any(reason_fragment in p.name for p in quarantined), (
        f"expected a {reason_fragment!r} quarantine, got "
        f"{[p.name for p in quarantined]}"
    )
    # The store healed: the bad entry is gone, a rebuild re-publishes.
    assert store.get(key) is None  # still a miss, not an error
    store.put(key, PAYLOAD)
    assert store.get(key) == PAYLOAD


def test_truncated_entry_quarantines(store):
    path = store.put("key-t", PAYLOAD)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    _assert_quarantined_miss(store, "key-t", "malformed")


def test_bitflip_in_payload_quarantines(store):
    path = store.put("key-b", PAYLOAD)
    blob = bytearray(path.read_bytes())
    pos = blob.index(b"x" * 8) + 3  # inside the payload, keeps JSON valid
    blob[pos] ^= 0x01
    path.write_bytes(bytes(blob))
    _assert_quarantined_miss(store, "key-b", "checksum")


def test_bitflip_breaking_utf8_quarantines(store):
    # A high-bit flip mid-document makes read_text() raise
    # UnicodeDecodeError — found by the crash-storm soak; it must be
    # damage like any other, not an exception escaping get().
    path = store.put("key-u", PAYLOAD)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] = 0xA8
    path.write_bytes(bytes(blob))
    # Enumeration (the tuning service's boot-time index) reports the
    # document as keyless instead of raising.
    assert list(store.keys_on_disk()) == [(path, None)]
    _assert_quarantined_miss(store, "key-u", "unreadable")


def test_wrong_format_version_quarantines(store):
    path = store.put("key-v", PAYLOAD)
    doc = json.loads(path.read_text())
    doc["format"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(doc))
    _assert_quarantined_miss(store, "key-v", "format")


def test_misfiled_key_quarantines(store):
    # An entry document claiming a different key than the one it is
    # filed under (e.g. a botched manual copy between stores).
    src = store.put("key-src", PAYLOAD)
    store.path_for("key-dst").write_bytes(src.read_bytes())
    _assert_quarantined_miss(store, "key-dst", "key-mismatch")


def test_orphan_tmp_swept_on_open(tmp_path):
    store = DiskStore(tmp_path / "store")
    store.put("key-o", PAYLOAD)
    orphan = store.entries_dir / "dead-writer.json.1234.tmp"
    orphan.write_text('{"torn": ')
    # A fresh open (the next process) sweeps the crash leftover.
    reopened = DiskStore(tmp_path / "store")
    assert not orphan.exists()
    assert any("orphan-tmp" in p.name for p in reopened.quarantined())
    # The published entry it shadowed is untouched.
    assert reopened.get("key-o") == PAYLOAD


def test_unwritable_root_raises_store_error(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file where the store dir should go")
    with pytest.raises(StoreError):
        DiskStore(target)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_damage_is_a_miss_not_an_error(tmp_path_factory, data):
    """Arbitrary byte damage anywhere in an entry never escapes get().

    The store may serve the payload only if the bytes verify exactly;
    otherwise the result is None plus a quarantined file.  No damage
    pattern may raise.
    """
    root = tmp_path_factory.mktemp("fuzz")
    store = DiskStore(root / "store")
    path = store.put("fuzz-key", PAYLOAD)
    blob = bytearray(path.read_bytes())

    mode = data.draw(st.sampled_from(["flip", "truncate", "insert"]))
    if mode == "flip":
        pos = data.draw(st.integers(0, len(blob) - 1))
        val = data.draw(st.integers(1, 255))
        blob[pos] ^= val
    elif mode == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    else:
        pos = data.draw(st.integers(0, len(blob)))
        blob[pos:pos] = bytes([data.draw(st.integers(0, 255))])
    path.write_bytes(bytes(blob))

    got = store.get("fuzz-key")
    if got is None:
        assert store.quarantined()
        assert not path.exists()
    else:
        # The damage happened to cancel out (e.g. XOR inside a value
        # that round-trips): serving it is only legal if it verifies
        # to the exact original payload.
        assert got == PAYLOAD


# ----------------------------------------------------------------------
# The cache tiers on top: semantic verification + heal-by-remake, the
# same ladder (repro.core.cache.ContentCache) for both persistent kinds
# ----------------------------------------------------------------------


def _allreduce(algorithm, p, k=None):
    return build_schedule("allreduce", algorithm, p, k=k)


#: One disk-backed cache kind behind a uniform surface: ``open(root)``,
#: ``fetch(cache, algorithm, p, k) → (value, hit)``, the ``store_key``
#: the value is filed under, and ``make`` — the cold reference.
TIERS = [
    pytest.param(SimpleNamespace(
        open=open_schedule_store,
        fetch=lambda cache, alg, p, k=None:
            cache.get_or_build("allreduce", alg, p, k=k),
        store_key=lambda alg, p, k=None:
            schedule_store_key(schedule_key("allreduce", alg, p, k=k)),
        make=_allreduce,
    ), id="schedule"),
    pytest.param(SimpleNamespace(
        open=open_compiled_store,
        fetch=lambda cache, alg, p, k=None:
            cache.get_or_compile(_allreduce(alg, p, k)),
        store_key=lambda alg, p, k=None:
            compiled_store_key(_allreduce(alg, p, k)),
        make=lambda alg, p, k=None: compile_schedule(_allreduce(alg, p, k)),
    ), id="compiled"),
]


@pytest.mark.parametrize("tier", TIERS)
def test_persistent_cache_serves_and_heals(tmp_path, tier):
    cache = tier.open(tmp_path / "store")
    made, hit = tier.fetch(cache, "knomial", 8, 3)
    assert not hit  # cold everywhere: made and written through
    path = cache.store.path_for(tier.store_key("knomial", 8, 3))
    assert path.exists()

    # A fresh cache over the same directory serves from disk.
    warm = tier.open(tmp_path / "store")
    served, hit = tier.fetch(warm, "knomial", 8, 3)
    assert hit
    assert served.fingerprint() == made.fingerprint()

    # Damage the entry: the next fresh cache quarantines and remakes.
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 3] ^= 0xFF
    path.write_bytes(bytes(blob))
    healed_cache = tier.open(tmp_path / "store")
    remade, hit = tier.fetch(healed_cache, "knomial", 8, 3)
    assert not hit
    assert remade.fingerprint() == made.fingerprint()
    assert healed_cache.store.quarantined()
    # ... and the write-through healed the entry for the next reader.
    again = tier.open(tmp_path / "store")
    _, hit = tier.fetch(again, "knomial", 8, 3)
    assert hit


@pytest.mark.parametrize("tier", TIERS)
def test_semantic_mismatch_quarantines(tmp_path, tier):
    """A byte-perfect entry whose blob is the wrong artifact is damage.

    The checksum passes (the bytes are exactly what was written) but the
    content does not decode to what the key promises — the integrity
    ladder's last rung: the schedule's parameters must match its key,
    the compiled program must verify against the requesting schedule.
    """
    cache = tier.open(tmp_path / "store")
    tier.fetch(cache, "ring", 8)
    # File the p=8 entry under the p=4 key, re-checksummed so the byte
    # ladder passes and only the semantic check can catch it.
    payload = cache.store.get(tier.store_key("ring", 8))
    cache.store.put(tier.store_key("ring", 4), payload)

    fresh = tier.open(tmp_path / "store")
    value, hit = tier.fetch(fresh, "ring", 4)
    assert not hit  # remade, not served the wrong artifact
    assert value.nranks == 4
    assert value.fingerprint() == tier.make("ring", 4).fingerprint()
    assert any("semantic" in p.name for p in fresh.store.quarantined())


# ----------------------------------------------------------------------
# Format compatibility: a store written before a FORMAT_VERSION bump
# degrades to cold and heals; it never feeds old bytes to new code
# ----------------------------------------------------------------------


def _age_entries(store, version):
    """Stamp every entry under ``store`` with an earlier format version
    (the checksum covers key and payload, so the documents stay
    byte-valid — exactly what an old writer left behind)."""
    for path, _key in list(store.keys_on_disk()):
        doc = json.loads(path.read_text())
        doc["format"] = version
        path.write_text(json.dumps(doc))


#: Every format a store may still hold compiled entries in.
OLDER_FORMATS = range(2, FORMAT_VERSION)


@pytest.mark.parametrize("version", OLDER_FORMATS)
def test_older_compiled_entry_is_a_quarantined_miss_and_rebuilds(
    tmp_path, version
):
    schedule = _allreduce("kring", 8, 2)
    made, _ = open_compiled_store(tmp_path).get_or_compile(schedule)
    store = DiskStore(tmp_path)
    _age_entries(store, version)
    assert store.get(compiled_store_key(schedule)) is None
    assert any(f"format-{version}" in p.name for p in store.quarantined())

    rebuilt, hit = open_compiled_store(tmp_path).get_or_compile(schedule)
    assert not hit
    assert rebuilt.columns is schedule.columns()
    assert rebuilt.fingerprint() == made.fingerprint()
    # ... and the write-through filed a current-format entry.
    _, hit = open_compiled_store(tmp_path).get_or_compile(schedule)
    assert hit


def test_compiled_entry_with_pickled_signatures_is_remade(tmp_path,
                                                          monkeypatch):
    """An entry written while ``Columns`` carried the send payload
    signatures as an eighth field no longer decodes (the signatures are
    derived on read now): a counted, quarantined miss, remade with the
    same compiled fingerprint."""
    import collections
    import dataclasses

    import repro.core.schedule as schedule_mod

    schedule = _allreduce("kring", 8, 2)
    made, _ = open_compiled_store(tmp_path).get_or_compile(schedule)
    old_columns = collections.namedtuple(
        "Columns", [*schedule_mod.Columns._fields, "signatures"]
    )
    old_columns.__module__ = schedule_mod.__name__
    old = dataclasses.replace(made, columns=old_columns(
        *made.columns, made.columns.signatures
    ))
    with monkeypatch.context() as patch:
        # Pickled under the name the old layout had.
        patch.setattr(schedule_mod, "Columns", old_columns)
        open_compiled_store(tmp_path).put(schedule.fingerprint(), old,
                                          schedule)

    fresh = open_compiled_store(tmp_path)
    remade, hit = fresh.get_or_compile(schedule)
    assert not hit
    assert fresh.disk_stats().corruptions == 1
    assert any("semantic" in p.name for p in fresh.store.quarantined())
    assert remade.columns is schedule.columns()
    assert remade.fingerprint() == made.fingerprint()
    _, hit = open_compiled_store(tmp_path).get_or_compile(schedule)
    assert hit


@pytest.mark.parametrize("version", OLDER_FORMATS)
def test_service_boots_cold_over_an_older_store(tmp_path, version):
    """``repro-serve --store`` over a store an older format wrote:
    the boot index still reads its keys, every entry is a quarantined
    miss on first use, and the served artifact is the rebuilt one."""
    machine, sizes = reference(8), [256, 4096]
    query = {"collective": "allreduce",
             "algorithm": "recursive_multiplying", "k": "4"}
    first = TuningService(
        machine, sizes, collectives=("allreduce",), store=tmp_path
    )
    payload = first._ep_schedule(query)
    _age_entries(first.compiled_cache.store, version)

    second = TuningService(
        machine, sizes, collectives=("allreduce",), store=tmp_path
    )
    again = second._ep_schedule(
        {"fingerprint": payload["source_fingerprint"][:16]}
    )
    assert again["compiled_fingerprint"] == payload["compiled_fingerprint"]
    quarantined = [
        p.name for p in second.compiled_cache.store.quarantined()
    ]
    assert any(f"format-{version}" in name for name in quarantined)
    current = json.loads(
        second.compiled_cache.store.path_for(payload["store_key"]).read_text()
    )
    assert current["format"] == FORMAT_VERSION == 5


def test_a_disk_tier_hit_is_read_only(tmp_path):
    """A loaded artifact sits in the compiled cache for every later run,
    so like a lowered one it cannot be edited in place."""
    schedule = _allreduce("kring", 8, 2)
    open_compiled_store(tmp_path).get_or_compile(schedule)
    loaded, hit = open_compiled_store(tmp_path).get_or_compile(schedule)
    assert hit and loaded.columns is not schedule.columns()
    with pytest.raises(ValueError, match="read-only"):
        loaded.columns.peers[0] = 1
    for column in loaded.columns:
        assert not column.flags.writeable
    for prog in loaded.programs:
        with pytest.raises(ValueError, match="read-only"):
            prog.seg_bounds[0] = 1
