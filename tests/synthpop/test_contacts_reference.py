"""``derive_contacts`` against the group-by-group loop it replaced.

The reference below is the original per-location loop, kept verbatim in
behaviour: one ``np.triu_indices`` per dense group, two ``rng.integers``
calls (i-draws, then j-draws) per sparse group.  The vectorised derivation
must emit the same columns (values and dtypes) and leave the generator in
the same state, on hand-picked edge cases and on random visit tables.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthpop.contacts import (
    CONTACTS_PER_VISITOR,
    DENSE_THRESHOLD,
    MIN_OVERLAP_MIN,
    ContactNetwork,
    derive_contacts,
)
from repro.synthpop.locations import VisitTable

COLUMNS = ("source", "target", "start", "duration", "source_activity",
           "target_activity", "weight", "active")


def _reference_pairs(g, rng):
    if g <= DENSE_THRESHOLD:
        return np.triu_indices(g, k=1)
    n_pairs = (g * CONTACTS_PER_VISITOR) // 2
    i = rng.integers(0, g, size=n_pairs)
    j = rng.integers(0, g, size=n_pairs)
    keep = i != j
    i, j = i[keep], j[keep]
    return np.minimum(i, j), np.maximum(i, j)


def reference_contacts(visits, n_nodes, region_code, rng):
    """The per-group loop ``derive_contacts`` used to run."""
    order = np.argsort(visits.location, kind="stable")
    loc = visits.location[order]
    person = visits.person[order]
    kind = visits.kind[order]
    start = visits.start[order]
    end = start + visits.duration[order]
    cols = [[] for _ in range(6)]
    boundaries = np.flatnonzero(np.diff(loc)) + 1
    group_starts = np.concatenate([[0], boundaries])
    group_ends = np.concatenate([boundaries, [loc.size]])
    for a, b in zip(group_starts, group_ends):
        g = b - a
        if g < 2:
            continue
        li, lj = _reference_pairs(int(g), rng)
        if li.size == 0:
            continue
        pi, pj = person[a + li], person[a + lj]
        ov_start = np.maximum(start[a + li], start[a + lj])
        overlap = np.minimum(end[a + li], end[a + lj]) - ov_start
        ok = (overlap >= MIN_OVERLAP_MIN) & (pi != pj)
        if not ok.any():
            continue
        li, lj, pi, pj = li[ok], lj[ok], pi[ok], pj[ok]
        swap = pi > pj
        for out, col in zip(cols, (
                np.where(swap, pj, pi), np.where(swap, pi, pj),
                ov_start[ok].astype(np.int32), overlap[ok].astype(np.int32),
                np.where(swap, kind[a + lj], kind[a + li]).astype(np.int8),
                np.where(swap, kind[a + li], kind[a + lj]).astype(np.int8))):
            out.append(col)
    if not cols[0]:
        i64, i32, i8 = (np.empty(0, t) for t in (np.int64, np.int32, np.int8))
        return ContactNetwork(region_code, n_nodes, i64, i64.copy(), i32,
                              i32.copy(), i8, i8.copy(),
                              np.empty(0, np.float32))
    source, target, e_start, e_dur, ka, kb = map(np.concatenate, cols)
    key = (source * n_nodes + target) * 8 + ka
    order = np.lexsort((-e_dur, key))
    key_sorted = key[order]
    first = np.ones(key_sorted.size, dtype=bool)
    first[1:] = key_sorted[1:] != key_sorted[:-1]
    sel = order[first]
    return ContactNetwork(region_code, n_nodes, source[sel], target[sel],
                          e_start[sel], e_dur[sel], ka[sel], kb[sel],
                          np.ones(sel.size, dtype=np.float32))


def visit_table(sizes, n_nodes, seed, max_duration=240, coarse=False):
    """Shuffled visits: ``sizes[k]`` rows at location ``k`` (in scrambled
    id order), persons drawn from ``0..n_nodes-1`` (repeats included).
    ``coarse`` puts starts and durations on a 30-minute grid, so one pair
    often meets for equally long at several venues (deduplication ties)."""
    rng = np.random.default_rng(seed)
    sizes = np.asarray(sizes, dtype=np.int64)
    n = int(sizes.sum())
    ids = rng.permutation(max(sizes.size, 1) * 3)[:sizes.size]
    perm = rng.permutation(n)
    return VisitTable(
        person=rng.integers(0, n_nodes, size=n)[perm],
        location=np.repeat(ids, sizes).astype(np.int64)[perm],
        kind=rng.integers(0, 8, size=n).astype(np.int8),
        start=(rng.integers(0, 4, size=n) * 30 if coarse
               else rng.integers(0, 1440, size=n)).astype(np.int32),
        duration=(rng.integers(1, 4, size=n) * 30 if coarse
                  else rng.integers(0, max_duration + 1, size=n)
                  ).astype(np.int32),
        n_locations=int(ids.max()) + 1 if ids.size else 0,
    )


def assert_same(visits, n_nodes, seed):
    """New derivation == reference, column by column, and the generators
    end in the same state.  Returns the network."""
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = derive_contacts(visits, n_nodes, "XX", rng_new)
    want = reference_contacts(visits, n_nodes, "XX", rng_ref)
    assert (got.region_code, got.n_nodes) == (want.region_code, want.n_nodes)
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return got


def test_no_group_of_two_gives_empty_network_and_no_draws():
    visits = visit_table([1, 0, 1, 1], n_nodes=5, seed=1)
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    net = assert_same(visits, 5, 3)
    assert net.n_edges == 0
    assert [getattr(net, c).dtype for c in COLUMNS] == [
        np.int64, np.int64, np.int32, np.int32, np.int8, np.int8,
        np.float32, np.bool_]
    derive_contacts(visits, 5, "XX", rng)
    assert rng.bit_generator.state == before


def test_empty_visit_table():
    visits = visit_table([], n_nodes=3, seed=0)
    assert assert_same(visits, 3, 0).n_edges == 0


@pytest.mark.parametrize("sizes", [
    [DENSE_THRESHOLD], [DENSE_THRESHOLD + 1],
    [DENSE_THRESHOLD, DENSE_THRESHOLD + 1, 2, DENSE_THRESHOLD + 1, 40],
])
def test_threshold_sizes(sizes):
    net = assert_same(visit_table(sizes, n_nodes=10_000, seed=5), 10_000, 9)
    assert net.n_edges > 0


def test_repeated_person_at_one_location():
    """Two visits by one person to one venue never make a self-contact."""
    visits = VisitTable(
        person=np.array([7, 7, 3, 7, 3], np.int64),
        location=np.array([4, 4, 4, 9, 9], np.int64),
        kind=np.array([1, 2, 1, 0, 0], np.int8),
        start=np.zeros(5, np.int32),
        duration=np.full(5, 60, np.int32),
        n_locations=10,
    )
    net = assert_same(visits, 10, 0)
    assert (net.source != net.target).all()
    # 3 meets both of 7's visits to location 4 in its own context 1 (one
    # edge after deduplication), and 7 again at location 9 in context 0.
    assert net.n_edges == 2


def test_overlaps_below_minimum_are_dropped():
    sizes = [5, DENSE_THRESHOLD + 3, 30]
    visits = visit_table(sizes, n_nodes=1_000, seed=2,
                         max_duration=2 * MIN_OVERLAP_MIN)
    visits.start[:] = 0
    net = assert_same(visits, 1_000, 4)
    assert net.duration.min() >= MIN_OVERLAP_MIN
    short = (visits.duration < MIN_OVERLAP_MIN).sum()
    assert 0 < short < visits.size


def test_dedup_ties_keep_the_earliest_venue():
    """Persons 1 and 2 meet for 60 minutes at a sparse venue (location 0)
    and at a dense one (location 5), starting at different times: the
    earlier venue in location order supplies the kept edge, as in the
    group-by-group loop, whatever kind of group it is."""
    g = DENSE_THRESHOLD + 1
    visits = VisitTable(
        person=np.concatenate([np.tile([1, 2], g)[:g], [1, 2]]).astype(
            np.int64),
        location=np.array([0] * g + [5, 5], np.int64),
        kind=np.zeros(g + 2, np.int8),
        start=np.array([0] * g + [120, 120], np.int32),
        duration=np.full(g + 2, 60, np.int32),
        n_locations=6,
    )
    net = assert_same(visits, 3, 0)
    assert net.n_edges == 1 and int(net.start[0]) == 0


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(
        st.one_of(st.sampled_from([0, 1, 2, DENSE_THRESHOLD,
                                   DENSE_THRESHOLD + 1]),
                  st.integers(0, 4 * DENSE_THRESHOLD)),
        max_size=12),
    n_nodes=st.integers(1, 400),
    table_seed=st.integers(0, 2**32 - 1),
    rng_seed=st.integers(0, 2**32 - 1),
    max_duration=st.sampled_from([MIN_OVERLAP_MIN, 30, 600]),
    coarse=st.booleans(),
)
def test_matches_reference_on_random_tables(sizes, n_nodes, table_seed,
                                            rng_seed, max_duration, coarse):
    visits = visit_table(sizes, n_nodes, table_seed, max_duration, coarse)
    assert_same(visits, n_nodes, rng_seed)
