"""CheckpointManager: durable chains, fallback, heartbeats, reclamation.

Snapshots ride the CAS as ``checkpoint/v1`` blobs (the store's one
codec) keyed by (instance key, tick) with an append-only per-instance
pointer journal; only the newest two are kept.  The manager must fall
back past missing/corrupt blobs (quarantining them), heartbeat the
instance's lease from its writes on a clock, survive the store's LRU gc
while in flight, survive a crash between any two steps of a write, and
reclaim the whole chain once the instance's terminal result lands.
"""

import io
import json
import os
import pathlib
import time
import zipfile

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointManager,
    CheckpointPlan,
    checkpoint_blob_key,
)
from repro.core.parallel import InstanceSpec
from repro.core.runner import execute_specs
from repro.obs.registry import MetricsRegistry
from repro.store.cas import (
    BLOB_MAGIC,
    CHECKPOINT_EXEMPT_TTL_S,
    CHECKPOINT_FAMILY,
    ContentStore,
    LeaseTable,
    lease_dir,
    write_blob,
)
from repro.store.keys import (
    INSTANCE_NAMESPACE,
    SUMMARY_NAMESPACE,
    instance_key,
)
from repro.store.ledger import replay_ledger

from .test_equivalence import assert_payload_bytes_identical

KEY = "cd" * 32


def payload(tick):
    return {"state": np.arange(tick, tick + 8, dtype=np.int64),
            "rng": np.array([tick], dtype=np.uint64)}


@pytest.fixture()
def plan(tmp_path):
    return CheckpointPlan(store_root=str(tmp_path / "store"), every=5)


@pytest.fixture()
def manager(plan):
    return plan.manager(metrics=MetricsRegistry())


class TestPlan:
    def test_disabled_when_every_is_zero(self, tmp_path):
        assert not CheckpointPlan(store_root=str(tmp_path), every=0).enabled
        assert CheckpointPlan(store_root=str(tmp_path), every=5).enabled

    def test_blob_key_is_stable_and_distinct(self):
        assert checkpoint_blob_key(KEY, 5) == checkpoint_blob_key(KEY, 5)
        assert checkpoint_blob_key(KEY, 5) != checkpoint_blob_key(KEY, 6)
        assert checkpoint_blob_key(KEY, 5) != checkpoint_blob_key("ef" * 32, 5)


class TestChain:
    def test_write_records_pointer_and_counters(self, manager):
        manager.write(KEY, payload(5), tick=5)
        manager.write(KEY, payload(10), tick=10)
        assert manager.ticks(KEY) == [5, 10]
        assert manager.latest_tick(KEY) == 10
        assert manager.metrics.value("checkpoint.written") == 2
        assert manager.metrics.value("checkpoint.bytes") > 0

    def test_load_latest_returns_newest(self, manager):
        manager.write(KEY, payload(5), tick=5)
        manager.write(KEY, payload(10), tick=10)
        tick, [loaded] = next(manager.resume_points([KEY]))
        assert tick == 10
        assert np.array_equal(loaded["state"], payload(10)["state"])

    def test_empty_chain_loads_none(self, manager):
        assert next(manager.resume_points([KEY]), None) is None
        assert manager.ticks(KEY) == []

    def test_missing_blob_falls_back_to_older(self, manager):
        manager.write(KEY, payload(5), tick=5)
        manager.write(KEY, payload(10), tick=10)
        manager.store.path_of(checkpoint_blob_key(KEY, 10)).unlink()
        tick, _loaded = next(manager.resume_points([KEY]))
        assert tick == 5
        assert manager.metrics.value("checkpoint.invalid") == 1
        assert manager.ticks(KEY) == [5]

    def test_corrupt_blob_quarantined_falls_back(self, manager):
        """A flipped byte fails the CAS digest: served as a miss, chain
        falls back to the next-older snapshot."""
        manager.write(KEY, payload(5), tick=5)
        manager.write(KEY, payload(10), tick=10)
        blob = manager.store.path_of(checkpoint_blob_key(KEY, 10))
        raw = bytearray(blob.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        blob.write_bytes(bytes(raw))
        tick, _loaded = next(manager.resume_points([KEY]))
        assert tick == 5
        assert manager.metrics.value("checkpoint.invalid") == 1

    def test_corrupt_digest_entry_quarantined_falls_back(self, manager):
        """Every array decodes and says what was written — only the
        stored digest field is wrong.  Still not served."""
        manager.write(KEY, payload(5), tick=5)
        manager.write(KEY, payload(10), tick=10)
        blob = manager.store.path_of(checkpoint_blob_key(KEY, 10))
        raw = bytearray(blob.read_bytes())
        digest = slice(len(BLOB_MAGIC), len(BLOB_MAGIC) + 32)
        raw[digest] = bytes(b ^ 0xFF for b in raw[digest])
        blob.write_bytes(bytes(raw))
        tick, _loaded = next(manager.resume_points([KEY]))
        assert tick == 5
        assert manager.metrics.value("checkpoint.invalid") == 1
        assert manager.store.quarantined_keys() == [
            checkpoint_blob_key(KEY, 10)]

    def test_every_family_uses_the_one_codec(self, manager):
        """No format decision by family: a checkpoint, an outcome, a
        summary and an unlabelled blob of the same payload are the same
        bytes — the one encoding, not a zip."""
        manager.write(KEY, payload(5), tick=5)
        keys = [checkpoint_blob_key(KEY, 5), "aa" * 32, "bb" * 32, "ee" * 32]
        manager.store.put(keys[1], payload(5), family=INSTANCE_NAMESPACE)
        manager.store.put(keys[2], payload(5), family=SUMMARY_NAMESPACE)
        manager.store.put(keys[3], payload(5))
        want = io.BytesIO()
        write_blob(want, payload(5))
        for key in keys:
            path = manager.store.path_of(key)
            assert path.suffix == ".blob"
            assert not zipfile.is_zipfile(path), key
            assert path.read_bytes() == want.getvalue(), key

    def test_only_the_newest_two_are_kept(self, manager):
        for tick in range(5, 55, 5):
            manager.write(KEY, payload(tick), tick=tick)
        assert manager.ticks(KEY) == [45, 50]
        assert sorted(manager.store.keys()) == sorted(
            checkpoint_blob_key(KEY, t) for t in (45, 50))
        assert manager.metrics.value("checkpoint.written") == 10

    def test_write_behind_listed_ticks_supersedes_them(self, manager, plan):
        """A group that found no common tick restarts from 0 while one
        lane still lists newer snapshots: its first write must be kept
        and served, not pruned as 'older than the newest two'."""
        for tick in (5, 10, 15):
            manager.write(KEY, payload(tick), tick=tick)
        for writer in (manager, plan.manager(metrics=MetricsRegistry())):
            writer.write(KEY, payload(5), tick=5)
            assert writer.ticks(KEY) == [5]
            assert next(writer.resume_points([KEY]))[0] == 5
            writer.write(KEY, payload(10), tick=10)
            assert writer.ticks(KEY) == [5, 10]

    def test_invalidate_removes_tick(self, manager):
        manager.write(KEY, payload(5), tick=5)
        manager.write(KEY, payload(10), tick=10)
        manager.invalidate(KEY, 10)
        assert manager.ticks(KEY) == [5]
        assert manager.metrics.value("checkpoint.invalid") == 1

    def test_resumed_accounts_ticks_saved(self, manager):
        manager.resumed(KEY, 40, attempt=2)
        assert manager.metrics.value("checkpoint.resumed") == 1
        assert manager.metrics.value("checkpoint.ticks_saved") == 40

    def test_discard_reclaims_the_chain(self, manager):
        manager.write(KEY, payload(5), tick=5)
        manager.write(KEY, payload(10), tick=10)
        reclaimed = manager.discard(KEY)
        assert reclaimed > 0
        assert manager.metrics.value("checkpoint.reclaimed_bytes") == reclaimed
        assert manager.ticks(KEY) == []
        assert next(manager.resume_points([KEY]), None) is None
        assert not manager.pointer_path(KEY).exists()

    def test_resume_points_walk_common_ticks(self, manager):
        """A group resumes only at a tick every lane holds: a lane left
        one snapshot ahead by a crash mid-write does not count, and a
        lane's missing blob costs that tick for that lane alone."""
        other = "ef" * 32
        for tick in (5, 10):
            manager.write(KEY, payload(tick), tick=tick)
        for tick in (10, 15):
            manager.write(other, payload(tick), tick=tick)
        tick, loaded = next(manager.resume_points([KEY, other]))
        assert tick == 10
        assert [p["state"][0] for p in loaded] == [10, 10]
        manager.store.path_of(checkpoint_blob_key(other, 10)).unlink()
        assert next(manager.resume_points([KEY, other]), None) is None
        assert manager.ticks(KEY) == [5, 10]
        assert manager.ticks(other) == [15]

    def test_discard_empty_chain_is_noop(self, manager):
        assert manager.discard(KEY) == 0


class TestLedgerEvents:
    def test_lifecycle_events_journal(self, tmp_path):
        plan = CheckpointPlan(store_root=str(tmp_path / "store"), every=5,
                              ledger_path=str(tmp_path / "run.jsonl"))
        manager = plan.manager(metrics=MetricsRegistry())
        manager.write(KEY, payload(5), tick=5)
        manager.resumed(KEY, 5, attempt=1)
        manager.invalidate(KEY, 5)
        manager.write(KEY, payload(10), tick=10)
        manager.discard(KEY)
        events = [json.loads(line)["event"]
                  for line in (tmp_path / "run.jsonl").read_text(
                      encoding="utf-8").splitlines()]
        assert events == ["checkpoint_written", "checkpoint_resumed",
                          "checkpoint_invalid", "checkpoint_written",
                          "checkpoint_discarded"]

    def test_replay_sees_checkpoint_events(self, tmp_path):
        plan = CheckpointPlan(store_root=str(tmp_path / "store"), every=5,
                              ledger_path=str(tmp_path / "run.jsonl"))
        manager = plan.manager(metrics=MetricsRegistry())
        manager.write(KEY, payload(5), tick=5)
        replayed = replay_ledger(tmp_path / "run.jsonl")
        assert replayed.count("checkpoint_written") == 1


class TestLeaseHeartbeat:
    def test_write_renews_anothers_lease(self, tmp_path, monkeypatch):
        """The executing worker is generally not the lease owner (the
        broker's fan-out acquired it) — the heartbeat must re-stamp the
        *owner's* record, preserving its identity.  It beats on a clock:
        the first write for a key always renews, later ones only once a
        quarter of the TTL has passed since this manager's last renewal."""
        leases = LeaseTable(lease_dir(tmp_path / "store"), owner="broker")
        assert leases.acquire(KEY)
        stale_ts = leases.holder(KEY)["ts"] - 3600.0
        path = leases.path_of(KEY)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["ts"] = stale_ts
        path.write_text(json.dumps(record), encoding="utf-8")

        plan = CheckpointPlan(store_root=str(tmp_path / "store"), every=5)
        manager = plan.manager(metrics=MetricsRegistry())
        manager.write(KEY, payload(5), tick=5)
        holder = leases.holder(KEY)
        assert holder["owner"] == "broker"
        assert holder["pid"] == os.getpid()
        assert holder["ts"] > stale_ts + 3000.0

        manager.write(KEY, payload(10), tick=10)
        assert leases.holder(KEY) == holder  # immediate: not re-stamped

        later = time.perf_counter() + leases.ttl_s / 4
        monkeypatch.setattr(time, "perf_counter", lambda: later)
        manager.write(KEY, payload(15), tick=15)
        renewed = leases.holder(KEY)
        assert renewed["ts"] > holder["ts"]
        assert (renewed["owner"], renewed["pid"]) == ("broker", os.getpid())

    def test_write_without_a_held_lease_stamps_none(self, tmp_path):
        plan = CheckpointPlan(store_root=str(tmp_path / "store"), every=5)
        plan.manager(metrics=MetricsRegistry()).write(KEY, payload(5),
                                                      tick=5)
        leases = LeaseTable(lease_dir(tmp_path / "store"))
        assert leases.holder(KEY) is None
        assert not leases.path_of(KEY).exists()


class TestGcExemption:
    def test_fresh_checkpoints_survive_gc(self, manager):
        """satellite: gc must not evict checkpoints of in-flight
        instances — losing one turns a cheap resume into a tick-0 rerun."""
        manager.write(KEY, payload(5), tick=5)
        store = ContentStore(manager.store.root)
        store.put("aa" * 32, {"x": np.zeros(4096)})
        old_blob = store.path_of("aa" * 32)
        past = old_blob.stat().st_mtime - 7200
        os.utime(old_blob, (past, past))
        evicted = store.gc(max_bytes=0)
        assert "aa" * 32 in evicted
        assert checkpoint_blob_key(KEY, 5) not in evicted
        assert next(manager.resume_points([KEY]), None) is not None

    def test_retained_pair_survives_gc_after_ten_writes(self, manager):
        for tick in range(5, 55, 5):
            manager.write(KEY, payload(tick), tick=tick)
        store = ContentStore(manager.store.root)
        assert store.family_counts() == {CHECKPOINT_FAMILY: 2}
        assert store.gc(max_bytes=0) == []
        assert next(manager.resume_points([KEY]))[0] == 50

    def test_abandoned_checkpoints_rejoin_the_lru(self, manager):
        """Older than the lease TTL = nobody is coming back for it."""
        manager.write(KEY, payload(5), tick=5)
        blob = manager.store.path_of(checkpoint_blob_key(KEY, 5))
        past = blob.stat().st_mtime - (CHECKPOINT_EXEMPT_TTL_S + 60)
        os.utime(blob, (past, past))
        store = ContentStore(manager.store.root)
        evicted = store.gc(max_bytes=0)
        assert checkpoint_blob_key(KEY, 5) in evicted

    def test_checkpoints_are_family_labelled(self, manager):
        manager.write(KEY, payload(5), tick=5)
        counts = ContentStore(manager.store.root).family_counts()
        assert counts.get(CHECKPOINT_FAMILY) == 1


# ---- a crash between any two steps of a write -------------------------------

DAYS, EVERY = 11, 3  # snapshots at ticks 3, 6 and 9: the third one prunes


class Killed(RuntimeError):
    """Stands in for kill -9 at one step of ``CheckpointManager.write``."""


def group_specs():
    return [InstanceSpec(
        region_code="VT", params={"TAU": 0.3, "SYMP": 0.65,
                                  "SH_COMPLIANCE": 0.6},
        n_days=DAYS, scale=1e-3, seed=100 + 13 * i, label=f"cp-i{i}",
        asset_seed=0) for i in range(2)]


def kill_at(monkeypatch, manager, key, step):
    """Die inside the tick-9 write of ``key``, leaving what kill -9 would:
    a torn temp at ``publish``, a torn line at ``append``, the blob that
    was about to be pruned at ``prune``."""
    import repro.checkpoint.manager as manager_mod
    import repro.store.cas as cas_mod

    blob9 = manager.store.path_of(checkpoint_blob_key(key, 9))
    blob3 = manager.store.path_of(checkpoint_blob_key(key, 3))
    pointer = manager.pointer_path(key)
    atomic_write, open_journal = cas_mod.atomic_write, manager_mod.open_journal
    unlink = pathlib.Path.unlink

    def dying_publish(path, mode="w"):
        if pathlib.Path(path) == blob9:
            blob9.parent.mkdir(parents=True, exist_ok=True)
            (blob9.parent / ".tmp-killed.tmp").write_bytes(b"PK\x03\x04torn")
            raise Killed(step)
        return atomic_write(path, mode)

    def dying_append(path):
        if pathlib.Path(path) == pointer and blob9.exists():
            with open(path, "a", encoding="utf-8") as fh:
                fh.write('{"tick": ')
            raise Killed(step)
        return open_journal(path)

    def dying_unlink(self, missing_ok=False):
        if self == blob3:
            raise Killed(step)
        return unlink(self, missing_ok=missing_ok)

    target, attr, dying = {
        "publish": (cas_mod, "atomic_write", dying_publish),
        "append": (manager_mod, "open_journal", dying_append),
        "prune": (pathlib.Path, "unlink", dying_unlink),
    }[step]
    monkeypatch.setattr(target, attr, dying)


@pytest.fixture(scope="module")
def uninterrupted():
    return [outcome for outcome, _dump in execute_specs(
        group_specs(), metrics=MetricsRegistry())]


@pytest.mark.parametrize("lane", [0, 1])
@pytest.mark.parametrize("step", ["publish", "append", "prune", "evicted"])
def test_crash_inside_a_write_resumes_from_greatest_common_tick(
        tmp_path, uninterrupted, lane, step):
    """Lanes write one after the other, so a crash inside either lane's
    tick-9 write leaves the lanes' newest ticks apart: the older retained
    snapshot is what they still share.  Only a crash after the *last*
    lane's journal line landed (its prune) leaves tick 9 common.
    ``evicted``: no crash inside the write, but a listed blob is gone by
    resume time — counted invalid, falls back."""
    specs = group_specs()
    plan = CheckpointPlan(store_root=str(tmp_path / "ck"), every=EVERY)
    manager = plan.manager(metrics=MetricsRegistry())
    keys = [instance_key(s, salt=plan.salt) for s in specs]
    with pytest.MonkeyPatch.context() as mp:
        if step == "evicted":
            execute_specs(specs, plan=plan, metrics=MetricsRegistry())
            manager.store.path_of(checkpoint_blob_key(keys[lane], 9)).unlink()
        else:
            kill_at(mp, manager, keys[lane], step)
            with pytest.raises(Killed):
                execute_specs(specs, plan=plan, metrics=MetricsRegistry())
    if step != "evicted":
        # Blob before line: whatever is listed is on disk, temps are not.
        for key in keys:
            assert manager.ticks(key), key
            for tick in manager.ticks(key):
                assert manager.store.contains(checkpoint_blob_key(key, tick))
    assert all(len(k) == 64 for k in manager.store.keys())

    reg = MetricsRegistry()
    resumed = execute_specs(specs, plan=plan, attempt=1, metrics=reg)
    common = 9 if (lane, step) == (1, "prune") else 6
    assert reg.value("checkpoint.resumed") == 2
    assert reg.value("checkpoint.ticks_saved") == 2 * common
    assert reg.value("checkpoint.invalid") == (step == "evicted")
    for clean, (chaotic, _dump) in zip(uninterrupted, resumed):
        assert_payload_bytes_identical(clean, chaotic)
    for key in keys:
        assert manager.ticks(key) == [6, 9]
    # A prune that never ran and was not retried leaves its one blob
    # behind; the journal still names it, so discard takes it too.
    assert len(manager.store) == 4 + ((lane, step) == (1, "prune"))
    for key in keys:
        manager.discard(key)
    assert len(manager.store) == 0
