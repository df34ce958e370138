"""Graceful degradation: no /dev/shm, ENOSPC, plane off."""

import errno

import pytest

from repro.obs import MetricsRegistry
from repro.plane.lifecycle import PlaneRuntime
from repro.plane.manifest import AssetKey

KEY = AssetKey("VT", 1e-3, 424242, 40)


def test_probe_failure_disables_and_falls_back(plane_root, vt_bundle,
                                               monkeypatch):
    """No usable shared memory: every ensure() is a silent fallback."""
    def broken_probe(name):
        raise OSError(errno.ENOENT, "/dev/shm is not mounted")

    monkeypatch.setattr("repro.plane.segment.probe", broken_probe)
    rt = PlaneRuntime(root=plane_root)
    reg = MetricsRegistry()
    assert rt.ensure(KEY, lambda: vt_bundle, metrics=reg) is None
    assert reg.value("plane.fallbacks") == 1
    assert not rt.available()
    assert "not mounted" in rt.disabled_reason()
    # The probe result is cached: a second call costs nothing and still
    # declines.
    assert rt.ensure(KEY, lambda: vt_bundle, metrics=reg) is None
    assert reg.value("plane.fallbacks") == 2


def test_enospc_during_build_falls_back_without_disabling(
        plane_root, vt_bundle, monkeypatch):
    """A bundle too large for /dev/shm falls back for *this* key but
    leaves the plane usable for smaller ones."""
    def no_space(name, size):
        raise OSError(errno.ENOSPC, "no space on /dev/shm")

    monkeypatch.setattr("repro.plane.segment.create_segment", no_space)
    rt = PlaneRuntime(root=plane_root)
    reg = MetricsRegistry()
    assert rt.ensure(KEY, lambda: vt_bundle, metrics=reg) is None
    assert reg.value("plane.fallbacks") == 1
    assert rt.available()  # ENOSPC is per-bundle, not fatal


def test_load_assets_returns_private_build_on_fallback(
        plane_root, monkeypatch):
    """The runner path never fails because the plane cannot serve."""
    def broken_probe(name):
        raise OSError(errno.ENOENT, "no shm")

    monkeypatch.setattr("repro.plane.segment.probe", broken_probe)
    from repro.core.runner import load_region_assets

    reg = MetricsRegistry()
    assets = load_region_assets("VT", 1e-3, 424242, 40, metrics=reg)
    assert assets.pop.size > 0
    assert reg.value("plane.fallbacks") == 1
    assert reg.value("plane.built") == 0
    # Private fallbacks are writable — nothing shared to corrupt.
    assets.pop.age[0] = assets.pop.age[0]


def test_plane_off_touches_nothing(tmp_path, monkeypatch):
    """Without the opt-in, the plane dir is never even created."""
    monkeypatch.delenv("REPRO_PLANE", raising=False)
    monkeypatch.setenv("REPRO_PLANE_DIR", str(tmp_path / "plane"))
    from repro.core.runner import _ASSET_CACHE, load_region_assets

    _ASSET_CACHE.clear()
    assets = load_region_assets("VT", 1e-3, 424242, 40)
    assert assets.pop.size > 0
    assert not (tmp_path / "plane").exists()
    _ASSET_CACHE.clear()
