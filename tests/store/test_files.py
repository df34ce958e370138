"""The shared on-disk idioms (:mod:`repro.store.files`) and their call sites.

Journals: a torn tail costs exactly the torn record, whatever byte the
crash cut it at — for the checkpoint pointer, exactly one snapshot.
Atomic publishes: a failed replace leaves the old target byte-identical
and no temp behind, at every JSON call site.
"""

import dataclasses
import os
import time
import types

import numpy as np
import pytest

from repro.checkpoint.manager import CheckpointPlan
from repro.plane.manifest import AssetKey, Manifest, write_manifest
from repro.store.cas import ContentStore, LeaseTable
from repro.store.files import atomic_write, read_json, read_jsonl
from repro.store.ledger import RunLedger, replay_ledger
from repro.surrogate import ModelRegistry

pytestmark = pytest.mark.fast

KEY = "cd" * 32


def _payload(x=0.0):
    return {"v": np.arange(4, dtype=np.float64) + x}


# ---- journals: heal on open -------------------------------------------------


def _ledger_ids(path):
    return replay_ledger(path).completed()


def _append_ledger(path, ids):
    with RunLedger(path) as ledger:
        for key in ids:
            ledger.instance_completed(key, label="x")


@pytest.mark.parametrize("append,ids_of", [
    (_append_ledger, _ledger_ids),
], ids=["ledger"])
def test_torn_tail_costs_only_the_torn_record(tmp_path, append, ids_of):
    """kill -9 mid-append, at every byte of the last record: the restarted
    writer's records all survive (the parent glued its first onto the torn
    line and lost both)."""
    whole = tmp_path / "whole.jsonl"
    append(whole, ["r1", "r2", "r3"])
    data = whole.read_bytes()
    start = data.index(b"\n", data.index(b"\n") + 1) + 1  # third record
    for size in range(start, len(data)):
        path = tmp_path / f"cut{size}.jsonl"
        path.write_bytes(data[:size])
        append(path, ["r4", "r5"])
        # Cut at the final newline alone, the record itself is complete.
        survived = {"r3"} if size == len(data) - 1 else set()
        assert ids_of(path) == {"r1", "r2", "r4", "r5"} | survived, size


def _pointer_manager(root):
    return CheckpointPlan(str(root), every=5).manager()


def test_torn_pointer_line_costs_exactly_that_snapshot(tmp_path):
    """kill -9 while the tick-15 line is half on disk: resume uses tick
    10, and the restarted writer's next line is not glued onto the torn
    one."""
    manager = _pointer_manager(tmp_path)
    for tick in (5, 10, 15):
        manager.write(KEY, _payload(tick), tick=tick)
    journal = manager.pointer_path(KEY)
    data = journal.read_bytes()
    start = data.rstrip(b"\n").rindex(b"\n") + 1  # the tick-15 line
    for size in range(start + 1, len(data) - 1):
        journal.write_bytes(data[:size])
        reopened = _pointer_manager(tmp_path)
        tick, [loaded] = next(reopened.resume_points([KEY]))
        assert tick == 10, size
        assert np.array_equal(loaded["v"], _payload(10)["v"])
        reopened.write(KEY, _payload(15), tick=15)
        assert reopened.ticks(KEY) == [10, 15], size


def test_pointer_drop_survives_reopen(tmp_path):
    manager = _pointer_manager(tmp_path)
    manager.write(KEY, _payload(5), tick=5)
    manager.write(KEY, _payload(10), tick=10)
    manager.invalidate(KEY, 10)
    reopened = _pointer_manager(tmp_path)
    assert reopened.ticks(KEY) == [5]
    assert read_jsonl(reopened.pointer_path(KEY))[-1] == {"drop": 10}
    reopened.write(KEY, _payload(10), tick=10)  # re-executed: listed again
    assert _pointer_manager(tmp_path).ticks(KEY) == [5, 10]


def test_discard_removes_the_journal_and_both_retained_blobs(tmp_path):
    manager = _pointer_manager(tmp_path)
    for tick in (5, 10, 15):
        manager.write(KEY, _payload(tick), tick=tick)
    assert manager.pointer_path(KEY).suffix == ".jsonl"
    assert len(manager.store) == 2
    assert manager.discard(KEY) > 0
    assert len(manager.store) == 0
    assert not manager.pointer_path(KEY).exists()


def test_read_jsonl_skips_what_is_not_a_record(tmp_path):
    path = tmp_path / "j.jsonl"
    assert read_jsonl(path) == []
    path.write_text('{"a": 1}\n\n[1, 2]\n"text"\n{"b": 2\n{"c": 3}\n')
    assert read_jsonl(path) == [{"a": 1}, {"c": 3}]


# ---- JSON or absent ---------------------------------------------------------


def test_read_json_missing_truncated_non_dict(tmp_path):
    path = tmp_path / "p.json"
    assert read_json(path) is None
    path.write_text('{"ticks": [1, 2')
    assert read_json(path) is None
    path.write_text("[1, 2]")
    assert read_json(path) is None
    path.write_text('{"ticks": [1, 2]}')
    assert read_json(path) == {"ticks": [1, 2]}


# ---- atomic publish ---------------------------------------------------------


def _lease_site(root):
    table = LeaseTable(root)
    assert table.acquire("k")
    return table.path_of("k"), lambda: table.renew("k")


def _surrogate_site(root):
    def model(key, n_train):
        return types.SimpleNamespace(
            model_key=lambda: key, to_payload=_payload, version="v",
            train_digest="d", n_train=n_train, n_days=10, seed=0,
            basis=types.SimpleNamespace(p=3))

    registry = ModelRegistry(ContentStore(root))
    registry.publish(model("ab" * 32, 8))
    registry.store.put("cd" * 32, _payload())
    return (registry.pointer_path,
            lambda: registry.publish(model("cd" * 32, 16)))


def _manifest_site(root):
    m = Manifest(
        key="a" * 64, asset=AssetKey("VT", 1e-3, 7), salt="s",
        segment="repro-plane-test", nbytes=128, arrays=[], meta={},
        owner_pid=1234, owner="pid:1234", created_ts=time.time())
    path = write_manifest(root, m)
    return path, lambda: write_manifest(
        root, dataclasses.replace(m, owner_pid=4321))


@pytest.mark.parametrize("site", [
    _lease_site, _surrogate_site, _manifest_site])
def test_failed_replace_keeps_old_target_and_leaves_no_temp(
        tmp_path, monkeypatch, site):
    target, rewrite = site(tmp_path)
    before = target.read_bytes()
    siblings = set(target.parent.iterdir())

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    try:
        published = rewrite()
    except OSError:
        published = False
    assert not published  # LeaseTable.renew reports, the rest raise
    assert target.read_bytes() == before
    assert set(target.parent.iterdir()) == siblings


def test_atomic_write_cleans_up_when_the_writer_raises(tmp_path):
    path = tmp_path / "sub" / "f.json"
    with atomic_write(path) as fh:
        fh.write("old")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("half")
            raise RuntimeError("writer died")
    assert path.read_text() == "old"
    assert list(path.parent.iterdir()) == [path]
