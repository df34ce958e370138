"""Edge-partitioning tests (the paper's threshold algorithm + baselines)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.epihiper import partition
from repro.epihiper.partition import (
    partition_cached,
    partition_degree_greedy,
    partition_round_robin,
    partition_threshold,
)
from repro.synthpop.contacts import ContactNetwork


def random_network(n_nodes, n_edges, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes - 1, n_edges)
    tgt = rng.integers(src + 1, n_nodes)
    return ContactNetwork(
        region_code="XX",
        n_nodes=n_nodes,
        source=src.astype(np.int64),
        target=tgt.astype(np.int64),
        start=np.zeros(n_edges, np.int32),
        duration=np.full(n_edges, 60, np.int32),
        source_activity=np.zeros(n_edges, np.int8),
        target_activity=np.zeros(n_edges, np.int8),
        weight=np.ones(n_edges, np.float32),
    )


def test_incoming_edge_invariant(va_assets):
    """All incoming edges of a node land on the node's owner rank."""
    _pop, net = va_assets
    part = partition_threshold(net, 8)
    np.testing.assert_array_equal(
        part.edge_owner, part.node_owner[net.target])


def test_single_partition(va_assets):
    _pop, net = va_assets
    part = partition_threshold(net, 1)
    assert (part.node_owner == 0).all()
    assert part.cut_edges(net) == 0
    assert part.imbalance() == 1.0


def test_balance_reasonable(va_assets):
    _pop, net = va_assets
    part = partition_threshold(net, 16)
    assert part.imbalance() < 1.5
    assert part.edge_counts().sum() == net.n_edges


def test_all_parts_used(va_assets):
    _pop, net = va_assets
    part = partition_threshold(net, 8)
    assert np.unique(part.node_owner).size == 8


def test_invalid_part_count(va_assets):
    _pop, net = va_assets
    with pytest.raises(ValueError):
        partition_threshold(net, 0)
    with pytest.raises(ValueError):
        partition_round_robin(net, -1)


def test_round_robin_node_balance(va_assets):
    _pop, net = va_assets
    part = partition_round_robin(net, 7)
    counts = np.bincount(part.node_owner)
    assert counts.max() - counts.min() <= 1


def test_degree_greedy_balances_better_than_round_robin():
    net = random_network(500, 5000, seed=3)
    rr = partition_round_robin(net, 8)
    greedy = partition_degree_greedy(net, 8)
    assert greedy.imbalance() <= rr.imbalance() + 0.05


def test_threshold_respects_epsilon(va_assets, monkeypatch):
    """Larger epsilon lets partitions grow beyond the even share."""
    _pop, net = va_assets
    tight = partition_threshold(net, 8)
    monkeypatch.setattr(partition, "THRESHOLD_EPSILON", net.n_edges / 4)
    loose = partition_threshold(net, 8)
    # The loose version front-loads early partitions.
    assert loose.edge_counts()[0] >= tight.edge_counts()[0]


@settings(max_examples=20, deadline=None)
@given(
    n_nodes=st.integers(10, 200),
    p=st.integers(1, 9),
    seed=st.integers(0, 2**31),
)
def test_property_partition_is_total_and_consistent(n_nodes, p, seed):
    net = random_network(n_nodes, n_nodes * 4, seed)
    part = partition_threshold(net, p)
    assert part.node_owner.shape == (n_nodes,)
    assert part.node_owner.min() >= 0
    assert part.node_owner.max() <= p - 1
    assert part.edge_counts().sum() == net.n_edges
    np.testing.assert_array_equal(
        part.edge_owner, part.node_owner[net.target])


def test_cache_roundtrip(tmp_path, va_assets):
    _pop, net = va_assets
    part1, hit1 = partition_cached(net, 8, tmp_path)
    assert not hit1
    part2, hit2 = partition_cached(net, 8, tmp_path)
    assert hit2
    np.testing.assert_array_equal(part1.node_owner, part2.node_owner)


def test_cache_distinguishes_part_counts(tmp_path, va_assets):
    _pop, net = va_assets
    _p8, _ = partition_cached(net, 8, tmp_path)
    p4, hit = partition_cached(net, 4, tmp_path)
    assert not hit
    assert p4.n_parts == 4
