"""Asset residency: one byte-bounded cache behind ``load_assets``.

The per-process cache charges every bundle its ``bundle_nbytes`` and
evicts least-recently-used entries past one byte budget; the fan-out
supervisor loads a pool's bundles into that same cache before the pool
exists.  These tests pin the counts the program itself publishes
(``assets.cache.*``, ``assets.mapped``): a region is built once per
process however many rounds revisit it, once per fan-out *parent* however
many workers and pools run it, and once per store however many processes
share that store.
"""

import multiprocessing as mp

import pytest

from repro.core import runner
from repro.core.parallel import (
    InstanceSpec,
    run_instances,
    supervise_instances,
)
from repro.core.runner import _AssetCache, _build_assets, load_assets
from repro.obs import MetricsRegistry
from repro.plane.bundle import AssetKey, bundle_nbytes
from repro.store.cas import ContentStore

SIX_REGIONS = ("VT", "WY", "AK", "ND", "SD", "DE")

needs_fork = pytest.mark.skipif(
    mp.get_start_method() != "fork",
    reason="workers inherit the parent's cache only under fork")


@pytest.fixture(autouse=True)
def _clean_cache():
    runner._ASSET_CACHE.clear()
    yield
    runner._ASSET_CACHE.clear()


def _specs(regions, round_index=0):
    return [InstanceSpec(region_code=r, params={"TAU": 0.2}, n_days=3,
                         scale=1e-3, seed=100 * round_index + i,
                         label=f"{r}-{round_index}", asset_seed=424242)
            for i, r in enumerate(regions)]


def test_six_regions_round_robin_build_once():
    """More regions than the old count cap (4) held: every revisit hits."""
    reg = MetricsRegistry()
    for round_index in range(3):
        run_instances(_specs(SIX_REGIONS, round_index), parallel=False,
                      registry=reg)
    assert reg.value("assets.cache.builds") == 6
    assert reg.value("assets.cache.misses") == 6
    assert reg.value("assets.cache.hits") == 12
    assert reg.value("assets.cache.evictions") == 0


def test_lru_eviction_respects_cap_and_counts(monkeypatch):
    keys = [AssetKey("VT", 1e-3, seed, 40) for seed in range(3)]
    bundles = [_build_assets(key) for key in keys]
    sizes = [bundle_nbytes(b) for b in bundles]
    reg = MetricsRegistry()
    # Any two fit, not three.
    monkeypatch.setattr(runner, "ASSET_CACHE_BYTES", sum(sizes) - 1)
    cache = _AssetCache()
    cache.put(keys[0], bundles[0], reg)
    cache.put(keys[1], bundles[1], reg)
    assert reg.value("assets.cache.bytes") == sizes[0] + sizes[1]
    assert cache.get(keys[0], reg) is bundles[0]  # refresh 0: now 1 is LRU
    cache.put(keys[2], bundles[2], reg)
    assert len(cache) == 2
    assert reg.value("assets.cache.evictions") == 1
    assert reg.value("assets.cache.bytes") == sizes[0] + sizes[2]
    assert cache.get(keys[1], reg) is None  # the LRU one went
    assert cache.get(keys[0], reg) is bundles[0]
    assert cache.get(keys[2], reg) is bundles[2]
    assert reg.value("assets.cache.hits") == 3
    assert reg.value("assets.cache.misses") == 1


def test_lone_over_budget_bundle_stays(monkeypatch):
    """The entry just inserted is never evicted, whatever its size."""
    keys = [AssetKey("VT", 1e-3, seed, 40) for seed in range(2)]
    bundles = [_build_assets(key) for key in keys]
    reg = MetricsRegistry()
    monkeypatch.setattr(runner, "ASSET_CACHE_BYTES", 1)
    cache = _AssetCache()
    cache.put(keys[0], bundles[0], reg)
    assert cache.get(keys[0], reg) is bundles[0]
    assert reg.value("assets.cache.evictions") == 0
    cache.put(keys[1], bundles[1], reg)
    assert len(cache) == 1 and cache.get(keys[1], reg) is bundles[1]
    assert reg.value("assets.cache.evictions") == 1
    assert reg.value("assets.cache.bytes") == bundle_nbytes(bundles[1])


@needs_fork
def test_pooled_fanout_builds_in_the_parent_only():
    reg = MetricsRegistry()
    run_instances(_specs(("VT", "WY")), parallel=True, max_workers=2,
                  registry=reg)
    assert reg.value("parallel.workers") == 2
    # Two builds in total, both resident here: the workers inherited them.
    assert reg.value("assets.cache.builds") == 2
    assert len(runner._ASSET_CACHE) == 2
    again = MetricsRegistry()
    run_instances(_specs(("VT", "WY"), 1), parallel=True, max_workers=2,
                  registry=again)
    assert again.value("assets.cache.builds") == 0
    assert again.value("assets.cache.misses") == 0


def test_unloadable_key_costs_its_own_spec_only():
    """A bundle the preload cannot build is its spec's failure, under
    supervision — the old pool initializer broke every worker on it."""
    specs = _specs(("VT", "ZZ"))
    res = supervise_instances(specs, parallel=True, max_workers=2,
                              registry=MetricsRegistry())
    assert res.results[0] is not None and res.results[1] is None
    assert [q.key for q in res.quarantined] == ["ZZ-0"]
    assert res.pool_rebuilds == 0


def test_pooled_fanouts_on_a_store_build_each_bundle_once(tmp_path):
    """The parent publishes each bundle once; a fresh process cache (a
    later process on the same store) maps them instead of building."""
    store = ContentStore(tmp_path / "store")
    reg = MetricsRegistry()
    for round_index in range(2):
        supervise_instances(_specs(("VT", "WY"), round_index), store=store,
                            parallel=True, max_workers=2, registry=reg)
    assert reg.value("assets.cache.builds") == 2
    assert reg.value("assets.mapped") == 0
    assert store.family_counts()["assets/v1"] == 2
    runner._ASSET_CACHE.clear()
    again = MetricsRegistry()
    supervise_instances(_specs(("VT", "WY"), 2), store=store,
                        parallel=True, max_workers=2, registry=again)
    assert again.value("assets.cache.builds") == 0
    assert again.value("assets.mapped") == 2


def test_load_region_assets_publishes_metrics():
    reg = MetricsRegistry()
    a = load_assets(AssetKey("VT", 1e-3, 424242, 40), metrics=reg)
    b = load_assets(AssetKey("VT", 1e-3, 424242, 40), metrics=reg)
    assert a is b
    assert reg.value("assets.cache.misses") == 1
    assert reg.value("assets.cache.hits") == 1
    # Distinct truth horizon = distinct canonical key = a real miss.
    c = load_assets(AssetKey("VT", 1e-3, 424242, 50), metrics=reg)
    assert c is not a
    assert reg.value("assets.cache.misses") == 2


def test_builds_are_timed_apart_from_cache_hits():
    """``assets.build_s`` times each synthesis once; hits add nothing."""
    reg = MetricsRegistry()
    load_assets(AssetKey("VT", 1e-3, 424242, 40), metrics=reg)
    assert reg.count("assets.build_s") == 1
    first = reg.value("assets.build_s")
    assert first > 0
    load_assets(AssetKey("VT", 1e-3, 424242, 40), metrics=reg)
    assert reg.count("assets.build_s") == 1
    assert reg.value("assets.build_s") == first
    assert reg.count("assets.build_s") == reg.value("assets.cache.builds")


def test_store_build_once_is_timed(tmp_path):
    """The build that publishes a bundle is timed like a private one;
    mapping it later adds no build time."""
    store = ContentStore(tmp_path / "store")
    key = AssetKey("VT", 1e-3, 424242, 40)
    reg = MetricsRegistry()
    runner.load_assets(key, store=store, metrics=reg)
    assert reg.value("assets.cache.builds") == 1
    assert reg.count("assets.build_s") == 1
    first = reg.value("assets.build_s")
    assert first > 0
    runner._ASSET_CACHE.clear()
    runner.load_assets(key, store=store, metrics=reg)
    assert reg.value("assets.mapped") == 1
    assert reg.count("assets.build_s") == 1
    assert reg.value("assets.build_s") == first
