"""The intervention phase's per-event structures against their references.

Three structures keep an NPI's cost proportional to the events it handles
rather than to the network: the person -> edge CSR
(:class:`~repro.epihiper.interventions.IncidentEdges`) is placed with two
E-length sorts instead of one stable 2E sort; the suppressor steps the
counts of distinct rows without a dedup; and the timed-release queue is
kept sorted, so a tick pops only what is due.  Each test compares one of
them with the straightforward computation it replaces:

- the CSR's offsets, and every person's multiset of rows and neighbours,
  equal the stable 2E-argsort build;
- after every suppress and release, ``count`` equals an ``np.add.at``
  reference and ``n_suppressed`` its nonzero count;
- a release queue filled out of order releases in tick order, never early,
  and leaves the suppressor alone on a tick with nothing due;
- every row array the Fig. 7 NPIs (plus masking and vaccination) hand to
  ``suppress`` is strictly ascending, the distinctness the suppressor
  relies on.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.epihiper import Simulation, build_covid_model, uniform_seeds
from repro.epihiper.interventions import (
    EdgeSuppressor,
    IncidentEdges,
    SuppressionHandle,
)
from repro.epihiper.npi import (
    _TimedReleases,
    make_masking,
    make_vaccination,
    scenario_interventions,
)
from repro.synthpop import build_region_network

pytestmark = pytest.mark.fast

SCENARIOS = ("base", "RO", "TA", "PS", "D1CT", "D2CT")


# -- (a) the CSR --------------------------------------------------------------


def stable_csr(source, target, n_nodes):
    """The reference build: one stable argsort over all 2E endpoints."""
    endpoints = np.concatenate([source, target])
    rows = np.concatenate([np.arange(source.shape[0]),
                           np.arange(target.shape[0])])
    order = np.argsort(endpoints, kind="stable")
    counts = np.bincount(endpoints, minlength=n_nodes)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return offsets, rows[order], np.concatenate([target, source])[order]


def bucket_sorted(offsets, values):
    """``values`` sorted within each CSR bucket (a canonical multiset)."""
    bucket = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    return values[np.lexsort((values, bucket))]


def assert_same_csr(source, target, n_nodes):
    inc = IncidentEdges(source, target, n_nodes)
    offsets, rows, others = stable_csr(source, target, n_nodes)
    np.testing.assert_array_equal(inc._offsets, offsets)
    np.testing.assert_array_equal(bucket_sorted(offsets, inc._rows),
                                  bucket_sorted(offsets, rows))
    np.testing.assert_array_equal(bucket_sorted(offsets, inc._others),
                                  bucket_sorted(offsets, others))
    assert inc._others.dtype == others.dtype
    np.testing.assert_array_equal(inc.degrees, np.diff(offsets))


@st.composite
def graphs(draw):
    """Edge lists in any order: unsorted sources, E = 0, isolated nodes,
    repeated pairs and self-pairs all occur."""
    n_nodes = draw(st.integers(1, 25))
    node = st.integers(0, n_nodes - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    if pairs and draw(st.booleans()):
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return arr[:, 0].copy(), arr[:, 1].copy(), n_nodes


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_csr_matches_stable_build_on_any_edge_list(graph):
    assert_same_csr(*graph)


@pytest.mark.parametrize("region", ["VT", "VA", "CA"])
def test_csr_matches_stable_build_on_real_networks(region):
    pop, net = build_region_network(region, scale=1e-3, seed=424242)
    assert_same_csr(net.source, net.target, pop.size)


# -- (b) + (d) the suppressor under the real NPIs ------------------------------


class CheckedSuppressor(EdgeSuppressor):
    """An :class:`EdgeSuppressor` that checks itself after every call.

    It keeps its own count with ``np.add.at`` (which honours repeats) and
    asserts, after each suppress or release, that ``count`` equals it and
    ``n_suppressed`` equals ``count``'s nonzero count; and it records every
    row array handed to ``suppress`` and counts the releases.
    """

    def __init__(self, n_edges):
        super().__init__(n_edges)
        self.reference = np.zeros(n_edges, dtype=np.int64)
        self.suppressed_rows: list[np.ndarray] = []
        self.n_released = 0

    def _check(self):
        np.testing.assert_array_equal(self.count, self.reference)
        assert self.n_suppressed == np.count_nonzero(self.count)

    def suppress(self, edge_rows):
        handle = super().suppress(edge_rows)
        self.suppressed_rows.append(np.asarray(edge_rows))
        np.add.at(self.reference, edge_rows, 1)
        self._check()
        return handle

    def release(self, handle):
        if not handle.released:
            np.add.at(self.reference, handle.edge_rows, -1)
            self.n_released += 1
        super().release(handle)
        self._check()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_suppressor_counts_match_add_at_after_every_call(data):
    n = data.draw(st.integers(1, 30))
    sup = CheckedSuppressor(n)
    live: list[SuppressionHandle] = []
    for _ in range(data.draw(st.integers(0, 25))):
        if live and data.draw(st.booleans()):
            handle = live.pop(data.draw(st.integers(0, len(live) - 1)))
            sup.release(handle)
            sup.release(handle)  # a second release is a no-op
        else:
            rows = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
            live.append(sup.suppress(np.array(sorted(rows), dtype=np.int64)))
    for handle in live:
        sup.release(handle)
    assert sup.n_suppressed == 0 and not sup.count.any()


def test_release_below_zero_raises():
    sup = EdgeSuppressor(4)
    handle = sup.suppress(np.array([1, 2]))
    sup.count[2] = 0
    with pytest.raises(RuntimeError, match="negative"):
        sup.release(handle)


@pytest.fixture(scope="module")
def va():
    return build_region_network("VA", scale=1e-3, seed=424242)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fig7_npis_suppress_strictly_ascending_rows(va, scenario):
    pop, net = va
    interventions = scenario_interventions(scenario) + [
        make_masking(0.5, start=5, end=40),
        make_vaccination(0.2, 0.8, day=3),
    ]
    sim = Simulation(build_covid_model(), pop, net, seed=11,
                     interventions=interventions)
    sim.suppressor = CheckedSuppressor(net.n_edges)
    sim.seed_infections(uniform_seeds(pop, 60, sim.rng))
    sim.run(90)
    calls = sim.suppressor.suppressed_rows
    # SC, SH and isolations; SH's end and expired isolations release.
    assert len(calls) > 10 and sim.suppressor.n_released > 3
    for rows in calls:
        assert (np.diff(rows) > 0).all()


# -- (c) the release queue ----------------------------------------------------


class RecordingSuppressor:
    """Stands in for the suppressor: records each release, does nothing."""

    def __init__(self):
        self.released: list[SuppressionHandle] = []

    def release(self, handle):
        self.released.append(handle)


def test_release_queue_filled_out_of_order_releases_in_tick_order():
    queue = _TimedReleases()
    ticks = [7, 3, 9, 3, 5, 12, 1, 9]
    handles = [SuppressionHandle(np.array([i])) for i in range(len(ticks))]
    for tick, handle in zip(ticks, handles):
        queue.add(tick, handle)
    sim = SimpleNamespace(tick=0, suppressor=RecordingSuppressor())
    seen = 0
    for tick in range(15):
        sim.tick = tick
        queue.release_due(sim)
        fresh = sim.suppressor.released[seen:]
        seen = len(sim.suppressor.released)
        # Exactly the handles due now — none early, none left behind;
        # a tick with nothing due makes no call at all.
        want = [h for t, h in zip(ticks, handles) if t == tick]
        assert [id(h) for h in fresh] == [id(h) for h in want]
    assert queue._due == []
    release_ticks = [ticks[handles.index(h)] for h in sim.suppressor.released]
    assert release_ticks == sorted(release_ticks)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 12), max_size=4), max_size=15))
def test_release_queue_never_releases_early_or_late(adds_per_tick):
    """Handles added while the run goes, each for a tick up to a few in
    the past or ahead, are released at the first ``release_due`` at or
    after their tick, in tick order."""
    queue = _TimedReleases()
    sim = SimpleNamespace(tick=0, suppressor=RecordingSuppressor())
    when: dict[int, int] = {}
    for tick in range(len(adds_per_tick) + 13):
        sim.tick = tick
        for offset in (adds_per_tick[tick] if tick < len(adds_per_tick)
                       else ()):
            handle = SuppressionHandle(np.array([len(when)]))
            when[id(handle)] = tick + offset
            queue.add(tick + offset, handle)
        before = len(sim.suppressor.released)
        queue.release_due(sim)
        due_ticks = [when[id(h)] for h in sim.suppressor.released[before:]]
        assert due_ticks == sorted(due_ticks)
        assert all(due <= tick for due in due_ticks)
        assert all(due > tick for due, _handle in queue._due)
        assert [due for due, _handle in queue._due] == sorted(
            due for due, _handle in queue._due)
    assert len(sim.suppressor.released) == len(when)
