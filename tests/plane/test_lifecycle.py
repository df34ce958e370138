"""Plane lifecycle: build-once arbitration, refcounts, reclamation.

The cross-process tests use real spawn children racing through
``load_region_assets`` with the plane enabled — the same entry point the
warm pool and every service process use — so the arbitration they
exercise is the production path, not a harness.
"""

import glob
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.plane import plane_gc, plane_stats
from repro.plane.lifecycle import PlaneRuntime, _segment_name, _plane_salt
from repro.plane.manifest import (
    AssetKey,
    Manifest,
    manifest_path,
    read_manifest,
    refs_dir,
    write_manifest,
)

KEY = AssetKey("VT", 1e-3, 424242, 40)


def _shm_segments():
    return glob.glob("/dev/shm/repro-plane-*")


def test_build_then_attach_then_hit(plane_root, vt_bundle):
    a = PlaneRuntime(root=plane_root)
    reg = MetricsRegistry()
    built = a.ensure(KEY, lambda: vt_bundle, metrics=reg)
    assert built is not None
    assert reg.value("plane.built") == 1
    assert reg.value("plane.attached") == 1
    assert reg.value("plane.bytes") > 0
    # Even the builder runs off the shared read-only pages.
    with pytest.raises(ValueError):
        built.pop.age[0] = 1
    assert np.array_equal(built.pop.pid, vt_bundle.pop.pid)
    assert np.array_equal(built.net.weight, vt_bundle.net.weight)
    assert np.array_equal(built.truth.daily, vt_bundle.truth.daily)

    # A second runtime (fresh process-cache) attaches without building:
    # the builder is a tripwire that must never run.
    b = PlaneRuntime(root=plane_root)
    reg2 = MetricsRegistry()
    attached = b.ensure(KEY, lambda: 1 / 0, metrics=reg2)
    assert attached is not None
    assert reg2.value("plane.built") == 0
    assert reg2.value("plane.attached") == 1
    assert np.array_equal(attached.pop.pid, vt_bundle.pop.pid)

    # Same runtime again: process-cache hit, no filesystem traffic.
    again = b.ensure(KEY, lambda: 1 / 0, metrics=reg2)
    assert again is attached
    assert reg2.value("plane.hits") == 1

    b.shutdown()
    a.shutdown()
    assert _shm_segments() == []


def test_reap_respects_live_refs(plane_root, vt_bundle):
    a = PlaneRuntime(root=plane_root)
    reg = MetricsRegistry()
    assert a.ensure(KEY, lambda: vt_bundle, metrics=reg) is not None
    digest = KEY.digest(_plane_salt())

    # Our own (live) ref holds the segment down.
    assert PlaneRuntime(root=plane_root).reap(digest, metrics=reg) == 0
    assert read_manifest(plane_root, digest) is not None
    assert reg.value("plane.reclaimed") == 0

    # Last man out unlinks: stats before, nothing after.
    stats = plane_stats(plane_root)
    assert len(stats["segments"]) == 1
    assert stats["segments"][0]["live_refs"] == 1
    assert stats["segments"][0]["owner_alive"] is True
    a.shutdown()
    assert read_manifest(plane_root, digest) is None
    assert _shm_segments() == []


def test_stale_manifest_torn_down_and_rebuilt(plane_root, vt_bundle):
    """A manifest whose segment vanished (e.g. a reboot cleared /dev/shm)
    must be discarded and the bundle rebuilt, not fatal."""
    digest = KEY.digest(_plane_salt())
    write_manifest(plane_root, Manifest(
        key=digest, asset=KEY, salt=_plane_salt(),
        segment=_segment_name(digest), nbytes=64, arrays=[],
        meta={"region_code": "VT", "n_nodes": 0, "scale": 1e-3},
        owner_pid=2 ** 22 + 1, owner="pid:dead", created_ts=0.0))
    rt = PlaneRuntime(root=plane_root)
    reg = MetricsRegistry()
    got = rt.ensure(KEY, lambda: vt_bundle, metrics=reg)
    assert got is not None
    assert reg.value("plane.stale") == 1
    assert reg.value("plane.built") == 1
    rt.shutdown()


def _race_child(root, q, gate):
    os.environ["REPRO_PLANE"] = "1"
    os.environ["REPRO_PLANE_DIR"] = root
    from repro.core.runner import load_region_assets
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    assets = load_region_assets("VT", 1e-3, 424242, 40, metrics=reg)
    # Hold the attachment until every sibling has loaded: without the
    # barrier an early finisher exits, its last-man-out reap tears the
    # segment down, and a late starter legitimately rebuilds — which
    # would test the reclaim path, not the arbitration.
    gate.wait(timeout=120)
    q.put({
        "built": int(reg.value("plane.built")),
        "attached": int(reg.value("plane.attached")),
        "fallbacks": int(reg.value("plane.fallbacks")),
        "persons": int(assets.pop.size),
        "checksum": int(np.asarray(assets.net.source,
                                   dtype=np.int64).sum()),
    })


def test_concurrent_builders_build_exactly_once(plane_root):
    """Four processes race the same key: one builds, three attach."""
    ctx = mp.get_context("spawn")
    q = ctx.Queue()
    gate = ctx.Barrier(4)
    procs = [ctx.Process(target=_race_child, args=(str(plane_root), q, gate))
             for _ in range(4)]
    for p in procs:
        p.start()
    rows = [q.get(timeout=180) for _ in procs]
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    assert sum(r["built"] for r in rows) == 1
    assert sum(r["attached"] for r in rows) == 4
    assert sum(r["fallbacks"] for r in rows) == 0
    assert len({r["persons"] for r in rows}) == 1
    assert len({r["checksum"] for r in rows}) == 1
    # Every child exited; the last one out reaped the segment.
    assert _shm_segments() == []


def _crash_child(root):
    os.environ["REPRO_PLANE"] = "1"
    os.environ["REPRO_PLANE_DIR"] = root
    from repro.core.runner import load_region_assets

    load_region_assets("VT", 1e-3, 424242, 40)
    os._exit(17)  # skip atexit: leave the segment, manifest and ref behind


def test_crashed_owner_segment_reclaimed_by_gc(plane_root):
    ctx = mp.get_context("spawn")
    p = ctx.Process(target=_crash_child, args=(str(plane_root),))
    p.start()
    p.join(timeout=180)
    assert p.exitcode == 17
    # The crash left a published segment with a dead owner and a dead ref.
    stats = plane_stats(plane_root)
    assert len(stats["segments"]) == 1
    assert stats["segments"][0]["owner_alive"] is False
    assert len(_shm_segments()) == 1

    reg = MetricsRegistry()
    out = plane_gc(plane_root, metrics=reg)
    assert out["reclaimed"] == 1
    assert reg.value("plane.reclaimed") == 1
    assert reg.value("plane.reclaimed_bytes") > 0
    assert _shm_segments() == []
    assert plane_stats(plane_root)["segments"] == []


def test_gc_sweeps_dead_refs_and_orphan_segments(plane_root, vt_bundle):
    from repro.plane import segment as seg

    rt = PlaneRuntime(root=plane_root)
    assert rt.ensure(KEY, lambda: vt_bundle,
                     metrics=MetricsRegistry()) is not None
    digest = KEY.digest(_plane_salt())
    # A ref from a long-dead pid must not pin the segment...
    (refs_dir(plane_root, digest) / "4194299.ref").write_text(
        "{}", encoding="utf-8")
    # ...and a manifest-less segment (publisher crashed pre-manifest,
    # lease long expired) is an orphan the sweeper removes.
    orphan = seg.create_segment(f"{seg.SEGMENT_PREFIX}orphan-{os.getpid()}",
                                128)
    orphan.close()

    out = plane_gc(plane_root)
    assert out["kept"] == 1       # ours is live via our own ref
    assert out["orphans"] == 1
    assert len(_shm_segments()) == 1  # only the live segment remains

    rt.shutdown()
    assert _shm_segments() == []


def test_ensure_skips_plane_after_disable(plane_root, vt_bundle,
                                          monkeypatch):
    rt = PlaneRuntime(root=plane_root)
    rt._disabled = "test: forced off"
    reg = MetricsRegistry()
    assert rt.ensure(KEY, lambda: vt_bundle, metrics=reg) is None
    assert reg.value("plane.fallbacks") == 1
    assert not rt.available()
    assert rt.disabled_reason() == "test: forced off"
