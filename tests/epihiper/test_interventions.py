"""Intervention-framework tests: suppressor, incident edges, triggers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.epihiper.interventions import (
    EdgeSuppressor,
    IncidentEdges,
    Intervention,
    at_tick,
    from_tick,
    sample_subset,
)


class FakeSim:
    def __init__(self, tick):
        self.tick = tick
        self.variables = {}


def test_trigger_helpers():
    assert at_tick(5)(FakeSim(5))
    assert not at_tick(5)(FakeSim(6))
    assert from_tick(10)(FakeSim(12))
    assert not from_tick(10)(FakeSim(9))


def test_intervention_once_semantics():
    calls = []
    iv = Intervention("x", trigger=lambda s: True,
                      action=lambda s: calls.append(s.tick), once=True)
    assert iv.maybe_apply(FakeSim(0))
    assert not iv.maybe_apply(FakeSim(1))
    assert calls == [0]


def test_intervention_repeated():
    calls = []
    iv = Intervention("x", trigger=lambda s: s.tick % 2 == 0,
                      action=lambda s: calls.append(s.tick))
    for t in range(4):
        iv.maybe_apply(FakeSim(t))
    assert calls == [0, 2]
    assert iv.fired == 2


def test_sample_subset_bounds():
    ids = np.arange(1000)
    rng = np.random.default_rng(0)
    assert sample_subset(ids, 0.0, rng).size == 0
    assert sample_subset(ids, 1.0, rng).size == 1000
    mid = sample_subset(ids, 0.5, rng)
    assert 400 < mid.size < 600
    with pytest.raises(ValueError):
        sample_subset(ids, 1.5, rng)


def test_suppressor_basic_cycle():
    sup = EdgeSuppressor(10)
    h = sup.suppress(np.array([1, 2, 3]))
    active = sup.count == 0
    assert not active[[1, 2, 3]].any()
    assert active[[0, 4]].all()
    sup.release(h)
    assert (sup.count == 0).all()


def test_suppressor_overlapping_counts():
    sup = EdgeSuppressor(5)
    h1 = sup.suppress(np.array([2, 3]))
    h2 = sup.suppress(np.array([3, 4]))
    sup.release(h1)
    active = sup.count == 0
    assert active[2]
    assert not active[3]  # still held by h2
    assert not active[4]
    sup.release(h2)
    assert (sup.count == 0).all()


def test_suppressor_double_release_idempotent():
    sup = EdgeSuppressor(3)
    h = sup.suppress(np.array([0]))
    sup.release(h)
    sup.release(h)  # no error, no double decrement
    assert (sup.count >= 0).all()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_suppressor_refcount_invariant(data):
    """After any sequence of suppress/release pairs, released handles leave
    counts exactly as if they never happened."""
    n = data.draw(st.integers(1, 30))
    sup = EdgeSuppressor(n)
    handles = []
    for _ in range(data.draw(st.integers(0, 10))):
        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
        handles.append(sup.suppress(np.asarray(sorted(set(rows)),
                                               dtype=np.int64)))
    live = []
    for h in handles:
        if data.draw(st.booleans()):
            sup.release(h)
        else:
            live.append(h)
    expect = np.zeros(n, dtype=np.int16)
    for h in live:
        np.add.at(expect, h.edge_rows, 1)
    np.testing.assert_array_equal(sup.count, expect)


def test_incident_edges_lookup():
    # Edges: 0: (0,1), 1: (1,2), 2: (0,2)
    src = np.array([0, 1, 0], dtype=np.int64)
    tgt = np.array([1, 2, 2], dtype=np.int64)
    inc = IncidentEdges(src, tgt, 3)
    np.testing.assert_array_equal(inc.edges_of(np.array([0])), [0, 2])
    np.testing.assert_array_equal(inc.edges_of(np.array([1])), [0, 1])
    np.testing.assert_array_equal(inc.edges_of(np.array([0, 1])), [0, 1, 2])
    assert inc.edges_of(np.empty(0, np.int64)).size == 0


def test_incident_neighbors():
    src = np.array([0, 1, 0], dtype=np.int64)
    tgt = np.array([1, 2, 2], dtype=np.int64)
    inc = IncidentEdges(src, tgt, 3)
    np.testing.assert_array_equal(inc.neighbors_of(np.array([0])), [1, 2])
    np.testing.assert_array_equal(inc.neighbors_of(np.array([2])), [0, 1])
    # Self not included.
    assert 0 not in inc.neighbors_of(np.array([0])).tolist()


def test_incident_isolated_node():
    src = np.array([0], dtype=np.int64)
    tgt = np.array([1], dtype=np.int64)
    inc = IncidentEdges(src, tgt, 5)
    assert inc.edges_of(np.array([4])).size == 0
    assert inc.neighbors_of(np.array([4])).size == 0
