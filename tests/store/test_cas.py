"""Content-addressed blob store: atomicity, eviction, corruption, stats."""

import os

import numpy as np
import pytest

from repro.store import cas
from repro.store.cas import ContentStore, default_store

pytestmark = pytest.mark.fast

KEY = "ab" * 32
KEY2 = "cd" * 32
KEY3 = "ef" * 32


@pytest.fixture()
def store(tmp_path):
    return ContentStore(tmp_path / "store")


def payload(n=5, offset=0.0):
    return {"confirmed": np.arange(n, dtype=np.float64) + offset,
            "attack_rate": np.asarray(0.25),
            "transitions": np.asarray(1234, dtype=np.int64)}


def test_roundtrip_bit_identical(store):
    store.put(KEY, payload())
    got = store.get(KEY)
    np.testing.assert_array_equal(got["confirmed"], payload()["confirmed"])
    assert got["confirmed"].dtype == np.float64
    assert float(got["attack_rate"]) == 0.25
    assert int(got["transitions"]) == 1234


def test_miss_then_hit_counted(store):
    assert store.get(KEY) is None
    store.put(KEY, payload())
    assert store.get(KEY) is not None
    assert store.metrics.value("store.misses") == 1
    assert store.metrics.value("store.hits") == 1
    assert store.metrics.value("store.puts") == 1
    lookups = (store.metrics.value("store.hits")
               + store.metrics.value("store.misses"))
    assert store.metrics.value("store.hits") / lookups == 0.5


def test_blob_vanishing_after_the_read_is_still_a_hit(store, monkeypatch):
    """gc, the byte bound or another process may remove a blob between
    ``get``'s verified read and its recency touch: the payload it already
    verified is served, not a ``FileNotFoundError``."""
    store.put(KEY, payload())
    read = cas.read_blob

    def read_then_vanish(path):
        got = read(path)
        os.unlink(path)
        return got

    monkeypatch.setattr(cas, "read_blob", read_then_vanish)
    got = store.get(KEY)
    np.testing.assert_array_equal(got["confirmed"], payload()["confirmed"])
    assert store.metrics.value("store.hits") == 1
    assert not store.contains(KEY)


def test_contains_does_not_count(store):
    assert not store.contains(KEY)
    store.put(KEY, payload())
    assert store.contains(KEY)
    assert store.metrics.value("store.hits") == 0
    assert store.metrics.value("store.misses") == 0


def test_no_temp_files_left_behind(store):
    store.put(KEY, payload())
    leftovers = [p for p in store.root.rglob("*") if ".tmp" in p.name]
    assert leftovers == []


def test_put_existing_key_is_noop(store):
    first = store.put(KEY, payload())
    mtime = first.stat().st_mtime_ns
    second = store.put(KEY, payload(offset=99.0))  # same key wins once
    assert first == second
    assert first.stat().st_mtime_ns == mtime
    np.testing.assert_array_equal(store.get(KEY)["confirmed"],
                                  payload()["confirmed"])
    assert store.metrics.value("store.puts") == 1


def test_invalid_key_rejected(store):
    with pytest.raises(ValueError):
        store.path_of("../../etc/passwd")
    with pytest.raises(ValueError):
        store.path_of("ZZ" * 32)


def test_corrupt_blob_is_a_miss_and_removed(store):
    store.put(KEY, payload())
    path = store.path_of(KEY)
    path.write_bytes(b"definitely not an npz")
    assert store.get(KEY) is None
    assert not path.exists()
    assert store.metrics.value("store.misses") == 1


def test_keys_len_total_bytes(store):
    assert len(store) == 0
    store.put(KEY, payload())
    store.put(KEY2, payload(offset=1.0))
    assert sorted(store.keys()) == sorted([KEY, KEY2])
    assert len(store) == 2
    assert store.total_bytes() > 0


def test_lru_eviction_drops_oldest(store):
    store.put(KEY, payload(n=2000))
    store.put(KEY2, payload(n=2000, offset=1.0))
    store.put(KEY3, payload(n=2000, offset=2.0))
    # Make KEY the most recently used despite being written first.
    past = 1_000_000_000
    os.utime(store.path_of(KEY2), (past, past))
    os.utime(store.path_of(KEY3), (past + 1, past + 1))
    one_blob = store.total_bytes() // 3
    evicted = store.gc(max_bytes=one_blob + 1)
    assert evicted == [KEY2, KEY3]
    assert store.contains(KEY)
    assert store.metrics.value("store.evictions") == 2


def test_get_refreshes_recency(store):
    store.put(KEY, payload(n=2000))
    store.put(KEY2, payload(n=2000, offset=1.0))
    past = 1_000_000_000
    os.utime(store.path_of(KEY), (past, past))
    os.utime(store.path_of(KEY2), (past + 1, past + 1))
    store.get(KEY)  # touch: now newest
    evicted = store.gc(max_bytes=store.total_bytes() // 2 + 1)
    assert evicted == [KEY2]


def test_put_enforces_bound(tmp_path):
    store = ContentStore(tmp_path, max_bytes=1)  # everything evicts
    store.put(KEY, payload())
    assert len(store) == 0
    assert store.metrics.value("store.evictions") == 1


def test_gc_without_bound_rejected(store):
    with pytest.raises(ValueError):
        store.gc()


def test_clear(store):
    store.put(KEY, payload())
    store.put(KEY2, payload())
    assert store.clear() == 2
    assert len(store) == 0
    assert store.get(KEY) is None


def test_summary_mentions_counts(store):
    store.put(KEY, payload())
    store.get(KEY)
    text = store.summary()
    assert "1 blobs" in text
    assert "hits 1" in text


def test_default_store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env-store"))
    monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "12345")
    store = default_store()
    assert store.root == tmp_path / "env-store"
    assert store.max_bytes == 12345


def test_family_counts_by_producer(store):
    store.put(KEY, payload(), family="instance-outcome/v1")
    store.put(KEY2, payload(6), family="surrogate-model/v1")
    store.put(KEY3, payload(7))
    assert store.family_counts() == {
        "(unlabelled)": 1,
        "instance-outcome/v1": 1,
        "surrogate-model/v1": 1,
    }


def test_family_counts_track_live_blobs_only(store):
    store.put(KEY, payload(), family="fam/a")
    store.put(KEY2, payload(6), family="fam/a")
    store.path_of(KEY).unlink()  # evicted/cleared blob drops out
    assert store.family_counts() == {"fam/a": 1}
    store.clear()
    assert store.family_counts() == {}


def test_family_backfills_on_repeat_put(store):
    # First writer had no label; a later labelled put of the same key
    # (content-addressed no-op) still records the family.
    store.put(KEY, payload())
    store.put(KEY, payload(), family="fam/late")
    assert store.family_counts() == {"fam/late": 1}


def test_family_index_tolerates_torn_lines(store):
    store.put(KEY, payload(), family="fam/a")
    with store.family_path.open("a", encoding="utf-8") as fh:
        fh.write('{"key": "truncat')
    assert store.family_counts() == {"fam/a": 1}


def test_inflight_put_invisible_to_listings_and_gc(store, monkeypatch):
    """A second handle's keys/len/total_bytes/gc/clear neither list nor
    touch a blob another writer is still writing (its temp shares the
    object directory), and that put then completes."""
    other = ContentStore(store.root)
    other.put(KEY2, payload())
    seen = {}
    real_write = cas.write_blob

    def write_then_look(fh, arrays, **kwargs):
        real_write(fh, arrays, **kwargs)
        fh.flush()
        temps = [p for p in store.path_of(KEY).parent.iterdir()
                 if p.name != f"{KEY}.blob"]
        seen["temps"] = len(temps)
        seen["keys"] = sorted(other.keys())
        seen["len"] = len(other)
        seen["bytes"] = other.total_bytes()
        seen["evicted"] = other.gc(0)
        seen["cleared"] = other.clear()
        seen["temps_after"] = [p for p in temps if p.exists()]

    monkeypatch.setattr(cas, "write_blob", write_then_look)
    size2 = other.path_of(KEY2).stat().st_size
    store.put(KEY, payload())
    monkeypatch.undo()
    assert seen["temps"] == 1 and len(seen["temps_after"]) == 1
    assert seen["keys"] == [KEY2] and seen["len"] == 1
    assert seen["bytes"] == size2
    assert seen["evicted"] == [KEY2] and seen["cleared"] == 0
    assert store.get(KEY) is not None
    assert sorted(store.keys()) == [KEY]
