"""What a lane holds: only what its ticks write.

Everything no tick writes — a network's edge columns and base activity,
its incident CSR and degree column, its home-edge mask and the dense
scan's tables — is one :class:`SharedNetwork` per distinct network, and
the driver's constructor is the one place that decides which lanes
share one.  These tests hold that:

- lanes that replicate one network share one object and hold no edge
  column of their own: their suppression counts are slices of the
  driver's stack and they read the network's weight column in place;
- a union of two networks holds exactly two objects, whatever the lane
  order;
- a bare lane builds its own on first use, and two bare lanes on one
  network build two (the CSR is not cached per network);
- the scalar scheduler's age-list cache keeps nothing alive: a mapped
  bundle's file mapping is freed once its lanes and assets are dropped.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.runner import _build_assets, prepare_instance, run_instance
from repro.epihiper import progression
from repro.epihiper.batch import BatchedSimulation
from repro.epihiper.engine import SharedNetwork
from repro.plane.bundle import (
    ASSETS_NAMESPACE,
    AssetKey,
    assets_from_payload,
    bundle_payload,
)
from repro.store.cas import ContentStore
from repro.synthpop.activities import HOME

from ..conftest import TEST_SCALE, TEST_SEED

pytestmark = pytest.mark.fast

#: VHI + SC + SH: isolations read the home mask, nothing rescales weights.
PARAMS = {"VHI_COMPLIANCE": 0.8, "SH_COMPLIANCE": 0.6}


@pytest.fixture(scope="module")
def va():
    return _build_assets(AssetKey("VA", TEST_SCALE, TEST_SEED))


@pytest.fixture(scope="module")
def vt():
    return _build_assets(AssetKey("VT", TEST_SCALE, TEST_SEED))


def lanes_on(assets_list, seed=7):
    return [prepare_instance(assets, PARAMS, seed=seed + i)[0]
            for i, assets in enumerate(assets_list)]


def edge_columns(sim):
    """The lane's own attributes that are one value per edge."""
    n_edges = sim.net.n_edges
    return {name for name, value in vars(sim).items()
            if isinstance(value, np.ndarray) and value.shape == (n_edges,)}


def test_replicate_lanes_share_one_network_and_hold_no_edge_column(va):
    lanes = lanes_on([va] * 4)
    engine = BatchedSimulation(lanes)
    engine.run(30)
    shared = lanes[0].network
    assert isinstance(shared, SharedNetwork)
    assert all(sim.network is shared for sim in lanes)
    assert all(sim.incident is shared.incident for sim in lanes)
    # The network's columns are read in place, never copied.
    for name in ("source", "target", "duration", "active"):
        assert getattr(shared, name) is getattr(va.net, name), name
    np.testing.assert_array_equal(
        shared.home, (va.net.source_activity == HOME)
        & (va.net.target_activity == HOME))
    for sim in lanes:
        # The weight column it reads is the network's; its one written
        # edge column, the suppression counts, is the driver's stack.
        assert edge_columns(sim) == {"_weight"}
        assert sim.tick_weight is va.net.weight
        assert np.shares_memory(sim.suppressor.count, engine._supp_count)
    assert sum(sim.suppressor.total_operations for sim in lanes) > 0


def test_a_union_of_two_networks_holds_two(va, vt):
    lanes = lanes_on([va, vt, va, vt, vt])
    BatchedSimulation(lanes).run(10)
    assert len({id(sim.network) for sim in lanes}) == 2
    assert lanes[0].network is lanes[2].network
    assert lanes[1].network is lanes[3].network is lanes[4].network
    assert lanes[0].network.n_edges == va.net.n_edges
    assert lanes[1].network.n_edges == vt.net.n_edges


def test_a_bare_lane_builds_its_own_on_first_use(vt):
    a, b = lanes_on([vt, vt])
    assert a._network is None and b._network is None
    a.run(5)
    b.run(5)
    assert a._network is not None and a.network is not b.network


def test_age_list_cache_keeps_no_mapping_alive(vt, tmp_path):
    store = ContentStore(tmp_path)
    digest = AssetKey("VT", TEST_SCALE, TEST_SEED).digest("age-lists")
    store.put(digest, bundle_payload(vt), family=ASSETS_NAMESPACE)
    before = set(progression._AGE_LISTS)
    assets = assets_from_payload(store.get(digest, mapped=True))
    mapping = weakref.ref(assets.pop.age_group.base)
    assert isinstance(mapping(), np.memmap)
    run_instance(assets, PARAMS, n_days=40, seed=3)
    assert set(progression._AGE_LISTS) - before  # the run built a list
    del assets
    gc.collect()
    assert set(progression._AGE_LISTS) == before
    assert mapping() is None
