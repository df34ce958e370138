"""Plane test fixtures: isolated roots and a tiny real bundle.

Every test gets a private plane root under ``tmp_path`` (via the
``REPRO_PLANE_DIR`` env the whole stack honours) and a teardown that
shuts down any runtime rooted there and sweeps ``/dev/shm`` — a leaked
segment in one test must never leak into the next.
"""

import pytest


@pytest.fixture
def plane_root(tmp_path, monkeypatch):
    root = tmp_path / "plane"
    monkeypatch.setenv("REPRO_PLANE", "1")
    monkeypatch.setenv("REPRO_PLANE_DIR", str(root))
    from repro.core.runner import _ASSET_CACHE

    _ASSET_CACHE.clear()
    yield root
    from repro.plane import plane_gc
    from repro.plane.lifecycle import _RUNTIMES

    rt = _RUNTIMES.pop(root, None)
    if rt is not None:
        rt.shutdown()
    plane_gc(root)
    _ASSET_CACHE.clear()


@pytest.fixture(scope="session")
def vt_bundle(vt_assets):
    """A small real RegionAssets to publish on test planes."""
    from repro.core.runner import RegionAssets
    from repro.surveillance import generate_region_truth

    pop, net = vt_assets
    truth = generate_region_truth("VT", n_days=40, seed=424242)
    return RegionAssets(pop=pop, net=net, truth=truth, scale=1e-3)
