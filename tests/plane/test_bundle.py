"""AssetKey canonicalization and the bundle's array layout."""

import dataclasses

import numpy as np
import pytest

from repro.core.batching import group_key
from repro.core.parallel import InstanceSpec
from repro.core.runner import RegionAssets
from repro.plane.bundle import (
    AssetKey,
    assets_from_payload,
    bundle_nbytes,
    bundle_payload,
)
from repro.surveillance import generate_region_truth


def _spec(**kw):
    base = dict(region_code="VT", params={"TAU": 0.2}, n_days=10,
                scale=1e-3, seed=5, label="x", asset_seed=7)
    base.update(kw)
    return InstanceSpec(**base)


class TestAssetKey:
    def test_numeric_normalization(self):
        # int-typed scale / numpy-ish seed must not mint a second key.
        assert AssetKey("VT", 1, 0) == AssetKey("VT", 1.0, 0)
        assert AssetKey("VT", 1e-3, 7).token() == AssetKey(
            "VT", 0.001, 7).token()

    def test_truth_days_participates(self):
        """Regression: the historical warm-preload key dropped
        ``truth_days``, so bundles with a non-default horizon aliased."""
        a = AssetKey("VT", 1e-3, 7, truth_days=210)
        b = AssetKey("VT", 1e-3, 7, truth_days=150)
        assert a != b
        assert a.token() != b.token()
        assert a.digest("s") != b.digest("s")

    def test_one_canonical_key_everywhere(self):
        """Warm preload, batch grouping and the store agree on the key."""
        spec = _spec()
        k = AssetKey.of_spec(spec)
        assert group_key(spec)[0] == k
        assert k == AssetKey("VT", 1e-3, 7)  # asset_seed, not run seed

    def test_digest_salted(self):
        k = AssetKey("VT", 1e-3, 7)
        assert k.digest("salt-a") != k.digest("salt-b")
        assert len(k.digest("s")) == 64

    def test_ordering_and_hashing(self):
        keys = {AssetKey("VT"), AssetKey("VA"), AssetKey("VT")}
        assert len(keys) == 2
        assert sorted(keys)[0].region_code == "VA"


@pytest.fixture(scope="module")
def vt_bundle(vt_assets):
    pop, net = vt_assets
    truth = generate_region_truth("VT", n_days=40, seed=424242)
    return RegionAssets(pop=pop, net=net, truth=truth, scale=1e-3)


def test_payload_roundtrip_rebuilds_every_column(vt_bundle):
    got = assets_from_payload(bundle_payload(vt_bundle))
    assert got.scale == vt_bundle.scale
    assert got.net.region_code == "VT"
    assert got.net.n_nodes == vt_bundle.net.n_nodes
    for group in ("pop", "net", "truth"):
        mine, theirs = getattr(got, group), getattr(vt_bundle, group)
        for field in dataclasses.fields(mine):
            a, b = getattr(mine, field.name), getattr(theirs, field.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field


def test_nbytes_counts_the_columns_only(vt_bundle):
    payload = bundle_payload(vt_bundle)
    columns = sum(a.nbytes for n, a in payload.items()
                  if not n.startswith("meta."))
    assert bundle_nbytes(vt_bundle) == columns
