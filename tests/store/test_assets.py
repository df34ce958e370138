"""Region bundles in the result store: built once per store, then mapped.

``load_assets(key, store=...)`` looks in the process cache, then maps the
bundle's ``assets/v1`` blob read-only, and only then builds — under the
store's lease, so each bundle is built once per store and published for
every other process.  These tests pin what that tier promises: runs on
mapped bundles are bit-identical to runs on built ones, two racing
processes build once, a builder that dies holding the lease is replaced,
a corrupt bundle is quarantined and rebuilt, and mapped arrays are
read-only.  The cross-process tests race real spawn children through the
same entry point the fan-out's preload uses.
"""

import dataclasses
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.checkpoint import CheckpointPlan
from repro.core import runner
from repro.core.parallel import InstanceSpec, run_instances, supervise_instances
from repro.core.runner import load_assets
from repro.obs import MetricsRegistry
from repro.plane.bundle import AssetKey
from repro.resilience import FaultPlan, RetryPolicy
from repro.store.cas import ContentStore, lease_dir
from repro.store.keys import code_version_salt
from tests.checkpoint.test_equivalence import assert_payload_bytes_identical
from tests.conftest import KERNELS

DAYS = 8
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
#: VA is big enough (~0.1 s to build) that racing builders overlap.
RACE_KEY = AssetKey("VA", 1e-3, 424242, 40)


@pytest.fixture(autouse=True)
def _clean_cache():
    runner._ASSET_CACHE.clear()
    yield
    runner._ASSET_CACHE.clear()


def specs(kernel, k):
    return [
        InstanceSpec(
            region_code="VT",
            params={"TAU": 0.3, "SYMP": 0.65, "SH_COMPLIANCE": 0.6},
            n_days=DAYS, scale=1e-3, seed=100 + 13 * i,
            label=f"mapped-eq-{kernel}-k{k}-i{i}", asset_seed=0)
        for i in range(k)
    ]


def _built_run(kernel, k):
    runner._ASSET_CACHE.clear()
    out = run_instances(specs(kernel, k), parallel=False,
                        registry=MetricsRegistry())
    runner._ASSET_CACHE.clear()
    return out


def _published(root) -> ContentStore:
    """A store holding the VT bundle ``specs`` use, and a cold cache."""
    store = ContentStore(root)
    load_assets(AssetKey("VT", 1e-3, 0), store=store,
                metrics=MetricsRegistry())
    runner._ASSET_CACHE.clear()
    return store


def _digest(key: AssetKey) -> str:
    return key.digest(code_version_salt())


def _leftovers(root) -> list:
    return sorted(p.name for p in root.rglob("*")
                  if p.suffix in (".lease", ".tmp"))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("k", [1, 4, 16])
def test_mapped_run_bit_identical(tmp_path, kernel, k, force_kernel):
    with force_kernel(kernel):
        clean = _built_run(kernel, k)
        store = _published(tmp_path / "store")
        reg = MetricsRegistry()
        res = supervise_instances(specs(kernel, k), store=store,
                                  parallel=False, registry=reg)
    assert reg.value("assets.mapped") == 1  # the store actually served
    assert reg.value("assets.cache.builds") == 0
    assert res.ok and len(res.results) == len(clean) == k
    for c, m in zip(clean, res.results):
        assert_payload_bytes_identical(c, m)


def test_checkpoint_crash_resume_on_mapped_assets(tmp_path):
    """Mid-run crash + checkpoint resume, with the assets mapped from the
    store: still byte-identical to a clean run on built assets."""
    clean = _built_run("auto", 4)
    store = _published(tmp_path / "store")
    plan = CheckpointPlan(store_root=str(store.root), every=3)
    faults = FaultPlan.parse(["worker.crash_mid_run:tick=4,times=1"],
                             seed=0)
    reg = MetricsRegistry()
    res = supervise_instances(specs("auto", 4), store=store,
                              parallel=False, retry=FAST_RETRY,
                              faults=faults, registry=reg, checkpoint=plan)
    assert res.ok and res.retries == 1
    assert reg.value("checkpoint.resumed") >= 1
    # Mapped once by the preload; both attempts ran on that mapping.
    assert reg.value("assets.mapped") == 1
    assert reg.value("assets.cache.builds") == 0
    for c, m in zip(clean, res.results):
        assert_payload_bytes_identical(c, m)


def test_build_then_map_then_hit(tmp_path, monkeypatch):
    store = ContentStore(tmp_path / "store")
    key = AssetKey("VT", 1e-3, 424242, 40)
    reg = MetricsRegistry()
    built = load_assets(key, store=store, metrics=reg)
    assert reg.value("assets.cache.builds") == 1
    assert reg.value("assets.mapped") == 0
    assert store.family_counts() == {"assets/v1": 1}
    # A fresh process cache maps the published blob; building again
    # would be a bug, so the builder is a tripwire.
    runner._ASSET_CACHE.clear()
    reg2 = MetricsRegistry()
    monkeypatch.setattr(runner, "_build_assets", lambda key: 1 / 0)
    mapped = load_assets(key, store=store, metrics=reg2)
    assert reg2.value("assets.mapped") == 1
    assert reg2.value("assets.cache.builds") == 0
    assert np.array_equal(mapped.pop.pid, built.pop.pid)
    assert np.array_equal(mapped.net.weight, built.net.weight)
    assert np.array_equal(mapped.truth.daily, built.truth.daily)
    # Same process again: a cache hit, no store traffic.
    assert load_assets(key, store=store, metrics=reg2) is mapped
    assert reg2.value("assets.cache.hits") == 1
    assert _leftovers(store.root) == []


def test_mapped_arrays_are_read_only(tmp_path):
    store = _published(tmp_path / "store")
    assets = load_assets(AssetKey("VT", 1e-3, 0), store=store,
                         metrics=MetricsRegistry())
    for group in (assets.pop, assets.net, assets.truth):
        for field in dataclasses.fields(group):
            value = getattr(group, field.name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, field.name
    for arr in (assets.pop.age, assets.net.weight, assets.net.active,
                assets.truth.daily):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_corrupt_bundle_is_quarantined_rebuilt_and_republished(tmp_path):
    clean = _built_run("auto", 4)
    store = _published(tmp_path / "store")
    digest = _digest(AssetKey("VT", 1e-3, 0))
    path = store.path_of(digest)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # a flipped byte in the last array's data
    path.write_bytes(bytes(raw))
    reg = MetricsRegistry()
    res = supervise_instances(specs("auto", 4), store=store,
                              parallel=False, registry=reg)
    assert store.quarantined_keys() == [digest]
    assert reg.value("assets.cache.builds") == 1
    assert reg.value("assets.mapped") == 0
    assert store.get(digest, mapped=True) is not None  # republished, valid
    assert res.ok
    for c, m in zip(clean, res.results):
        assert_payload_bytes_identical(c, m)


def _load_child(root, gate, out):
    from repro.core.runner import load_assets
    from repro.obs import MetricsRegistry
    from repro.store.cas import ContentStore

    reg = MetricsRegistry()
    gate.wait(120)
    assets = load_assets(RACE_KEY, store=ContentStore(root), metrics=reg)
    out.put({
        "builds": int(reg.value("assets.cache.builds")),
        "mapped": int(reg.value("assets.mapped")),
        "persons": int(assets.pop.size),
        "checksum": int(np.asarray(assets.net.source,
                                   dtype=np.int64).sum()),
    })


def _race(root, n):
    ctx = mp.get_context("spawn")
    out = ctx.Queue()
    gate = ctx.Barrier(n)
    procs = [ctx.Process(target=_load_child, args=(str(root), gate, out))
             for _ in range(n)]
    for p in procs:
        p.start()
    rows = [out.get(timeout=180) for _ in procs]
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    return rows


def test_two_racing_processes_build_once(tmp_path):
    root = tmp_path / "store"
    rows = _race(root, 2)
    assert sum(r["builds"] for r in rows) == 1
    assert sum(r["mapped"] for r in rows) == 1
    assert len({(r["persons"], r["checksum"]) for r in rows}) == 1
    assert ContentStore(root).family_counts() == {"assets/v1": 1}
    assert _leftovers(root) == []


def _die_building(root):
    from repro.core import runner
    from repro.store.cas import ContentStore

    def die(key):
        os._exit(17)  # no finally, no atexit: the lease stays behind

    runner._build_assets = die
    runner.load_assets(RACE_KEY, store=ContentStore(root))


def test_builder_dying_with_the_lease_is_replaced(tmp_path, capsys):
    root = tmp_path / "store"
    ctx = mp.get_context("spawn")
    p = ctx.Process(target=_die_building, args=(str(root),))
    p.start()
    p.join(timeout=120)
    assert p.exitcode == 17
    digest = _digest(RACE_KEY)
    assert (lease_dir(root) / f"{digest}.lease").exists()
    assert not ContentStore(root).contains(digest)

    reg = MetricsRegistry()
    assets = load_assets(RACE_KEY, store=ContentStore(root), metrics=reg)
    assert reg.value("assets.cache.builds") == 1
    assert np.array_equal(assets.net.source,
                          runner._build_assets(RACE_KEY).net.source)
    # Everyone after maps what the replacement published.
    assert [r["mapped"] for r in _race(root, 1)] == [1]

    from repro.cli import main

    assert main(["store", "gc", "--dir", str(root),
                 "--max-bytes", str(1 << 30)]) == 0
    capsys.readouterr()
    assert _leftovers(root) == []
