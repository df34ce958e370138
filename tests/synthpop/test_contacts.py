"""Contact-network derivation tests."""

import numpy as np
import pytest

from repro.synthpop.activities import HOME
from repro.synthpop.contacts import (
    ContactNetwork,
    MIN_OVERLAP_MIN,
    build_region_network,
)


@pytest.fixture(scope="module")
def net_pop():
    pop, net = build_region_network("VA", scale=1e-3, seed=4)
    return pop, net


def test_edges_canonical(net_pop):
    _pop, net = net_pop
    assert (net.source < net.target).all()


def test_no_duplicate_edges_per_context(net_pop):
    _pop, net = net_pop
    key = ((net.source.astype(np.int64) * net.n_nodes + net.target) * 8
           + net.source_activity)
    assert np.unique(key).size == key.size


def test_endpoints_in_range(net_pop):
    pop, net = net_pop
    assert net.n_nodes == pop.size
    assert net.target.max() < pop.size
    assert net.source.min() >= 0


def test_household_members_connected(net_pop):
    """Cohabitants always meet at home: households form cliques."""
    pop, net = net_pop
    hh = pop.pid[pop.hid == 0]
    if hh.size >= 2:
        a, b = int(hh[0]), int(hh[1])
        mask = (net.source == min(a, b)) & (net.target == max(a, b))
        assert mask.any()


def test_home_edges_exist_and_tagged(net_pop):
    _pop, net = net_pop
    home_mask = (net.source_activity == HOME) & (net.target_activity == HOME)
    assert home_mask.any()


def test_durations_meet_minimum(net_pop):
    _pop, net = net_pop
    assert net.duration.min() >= MIN_OVERLAP_MIN


def test_degrees_sum_to_twice_edges(net_pop):
    _pop, net = net_pop
    assert net.degrees().sum() == 2 * net.n_edges


def test_mean_degree_realistic(net_pop):
    _pop, net = net_pop
    assert 2.0 < net.mean_degree() < 40.0


def test_subset_filters_edges(net_pop):
    _pop, net = net_pop
    mask = net.duration >= np.median(net.duration)
    sub = net.subset(mask)
    assert sub.n_edges == int(mask.sum())
    assert sub.n_nodes == net.n_nodes


def test_network_validates_canonical_order(net_pop):
    _pop, net = net_pop
    with pytest.raises(ValueError, match="canonical"):
        ContactNetwork(
            region_code="VA",
            n_nodes=net.n_nodes,
            source=net.target[:10],  # swapped: target > source
            target=net.source[:10],
            start=net.start[:10],
            duration=net.duration[:10],
            source_activity=net.source_activity[:10],
            target_activity=net.target_activity[:10],
            weight=net.weight[:10],
        )


def test_network_size_scales_with_population():
    _p1, small = build_region_network("VT", scale=1e-3, seed=4)
    _p2, large = build_region_network("VA", scale=1e-3, seed=4)
    assert large.n_edges > 5 * small.n_edges


def test_deterministic(net_pop):
    _pop, net = net_pop
    _pop2, net2 = build_region_network("VA", scale=1e-3, seed=4)
    np.testing.assert_array_equal(net.source, net2.source)
    np.testing.assert_array_equal(net.duration, net2.duration)


@pytest.mark.parametrize("n_active", [9, 11])
def test_network_validates_active_length(net_pop, n_active):
    _pop, net = net_pop
    cols = {name: getattr(net, name)[:10] for name in (
        "source", "target", "start", "duration", "source_activity",
        "target_activity", "weight")}
    with pytest.raises(ValueError, match="active length mismatch"):
        ContactNetwork("VA", net.n_nodes, **cols,
                       active=np.ones(n_active, dtype=bool))
    # Empty still means "all on"; the right length is kept as given.
    assert ContactNetwork("VA", net.n_nodes, **cols).active.all()
    off = np.zeros(10, dtype=bool)
    assert ContactNetwork("VA", net.n_nodes, **cols,
                          active=off).active is off
