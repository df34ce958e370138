"""AssetKey canonicalization and the versioned manifest registry."""

import time

import pytest

from repro.core.batching import group_key
from repro.core.parallel import InstanceSpec
from repro.plane.manifest import (
    PLANE_FORMAT,
    AssetKey,
    Manifest,
    PlaneError,
    list_manifests,
    manifest_path,
    read_manifest,
    write_manifest,
)


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
        """Warm preload, batch grouping and the plane agree on the key."""
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


def _manifest(key="a" * 64, fmt=PLANE_FORMAT):
    return Manifest(
        key=key, asset=AssetKey("VT", 1e-3, 7), salt="s",
        segment="repro-plane-test", nbytes=128,
        arrays=[{"name": "pop.pid", "dtype": "<i8", "shape": [4],
                 "offset": 0, "nbytes": 32}],
        meta={"region_code": "VT", "n_nodes": 4, "scale": 1e-3},
        owner_pid=1234, owner="pid:1234", created_ts=time.time(),
        format=fmt)


class TestManifestRegistry:
    def test_roundtrip(self, tmp_path):
        m = _manifest()
        write_manifest(tmp_path, m)
        got = read_manifest(tmp_path, m.key)
        assert got == m
        assert list_manifests(tmp_path) == [m]

    def test_missing_and_torn_read_as_none(self, tmp_path):
        assert read_manifest(tmp_path, "b" * 64) is None
        m = _manifest()
        write_manifest(tmp_path, m)
        manifest_path(tmp_path, m.key).write_text('{"torn', encoding="utf-8")
        assert read_manifest(tmp_path, m.key) is None

    def test_future_format_rejected(self, tmp_path):
        future = _manifest(fmt=PLANE_FORMAT + 1)
        with pytest.raises(PlaneError):
            Manifest.from_json(future.to_json())
        write_manifest(tmp_path, future)
        # An attacher must behave as if the bundle were never built.
        assert read_manifest(tmp_path, future.key) is None

    def test_write_is_atomic_replace(self, tmp_path):
        m = _manifest()
        write_manifest(tmp_path, m)
        updated = _manifest()
        write_manifest(tmp_path, updated)
        assert len(list_manifests(tmp_path)) == 1
        # No temp droppings next to the manifest.
        leftovers = [p for p in manifest_path(tmp_path, m.key).parent.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []
