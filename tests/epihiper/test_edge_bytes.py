"""A lane's memory per contact edge, held to a budget.

Memory per edge is what bounds a worker at national scale (the paper's
Fig. 10), so what a lane stores is narrowed without narrowing what it
computes: region bundles carry int32 person ids, the incident CSR holds
int32 rows and neighbours, durations stay int32 (the kernels widen what
they gather), and a lane reads the bundle's float32 weight column until
an NPI first rescales weights, when it takes a private float64 copy.
These tests hold that:

- tracemalloc peak and held bytes per edge of a VA@1e-3 solo lane and a
  K=4 batch over a 120-day run stay within budgets set from the measured
  numbers with ≈ 4-5 B per edge of headroom — less than the 8 B per edge
  one float64 weight copy per lane would add;
- the dtype contract: bundle ids int32, CSR rows and neighbours int32,
  offsets int64, the CSR's edge limit counts edges (not incidences), and a run on the narrow bundle equals one on the wide
  (int64) network in every value and dtype of its outputs;
- weight sharing: a lane that never masks reads the bundle's own column,
  one that masks holds a private float64 array, and a batch mixing both
  equals each lane run solo, on each transmission kernel;
- masking plus checkpoint restore on a mapped, read-only bundle is
  bit-identical to an uninterrupted run on a private build, solo and
  batched, and a snapshot carries edge weights only for a lane that
  holds its own.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.runner import (
    RegionAssets,
    _build_assets,
    prepare_instance,
    run_instance,
)
from repro.epihiper import Simulation, interventions
from repro.epihiper.batch import BatchedSimulation
from repro.epihiper.covid import build_covid_model_with_symp_fraction
from repro.epihiper.initialization import initialize_from_surveillance
from repro.epihiper.interventions import IncidentEdges
from repro.epihiper.npi import make_masking, make_sc, make_sh, make_vhi
from repro.plane.bundle import (
    ASSETS_NAMESPACE,
    AssetKey,
    assets_from_payload,
    bundle_payload,
)
from repro.store.cas import ContentStore
from repro.synthpop import build_region_network

from ..conftest import KERNELS, TEST_SCALE, TEST_SEED

pytestmark = pytest.mark.fast

#: The default cell of the scale ladder: VHI 0.8 + SC + SH 0.6.
PARAMS = {"VHI_COMPLIANCE": 0.8, "SH_COMPLIANCE": 0.6}
N_DAYS = 120

#: Budgets in tracemalloc bytes per edge of VA@1e-3 (30,577 edges,
#: 8,536 persons), over preparing and running the lanes on an already
#: built bundle.  Measured here: solo 39.6 held / 82.0 peak, K=4 75.1
#: held / 107.4 peak, since a lane stopped copying the base activity
#: and a home-edge mask is held once per network (40.6 / 84.1 and
#: 82.3 / 114.5 before); the layout with int64 ids and incidences, a
#: float64 duration copy and a float64 weight copy per lane read
#: 71.0 / 116.3 and 166.0 / 203.4.  "Held" is what the engine keeps once
#: its result is dropped.
SOLO_HELD, SOLO_PEAK = 44.0, 86.5
BATCH_HELD, BATCH_PEAK = 80.0, 112.0


@pytest.fixture(scope="module")
def va():
    return _build_assets(AssetKey("VA", TEST_SCALE, TEST_SEED))


def lane_bytes_per_edge(assets, k):
    """(held, peak) tracemalloc bytes per edge of ``k`` lanes prepared
    and run ``N_DAYS`` on ``assets`` as one batch."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lanes = [prepare_instance(assets, PARAMS, seed=7 + i)[0]
                 for i in range(k)]
        engine = BatchedSimulation(lanes)
        result = engine.run(N_DAYS)
        del result
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    e = assets.net.n_edges
    return (held - base) / e, (peak - base) / e


def test_solo_lane_within_its_byte_budget(va):
    held, peak = lane_bytes_per_edge(va, 1)
    assert held <= SOLO_HELD, f"solo lane holds {held:.1f} B/edge"
    assert peak <= SOLO_PEAK, f"solo lane peaks at {peak:.1f} B/edge"


def test_batch_within_its_byte_budget(va):
    held, peak = lane_bytes_per_edge(va, 4)
    assert held <= BATCH_HELD, f"K=4 batch holds {held:.1f} B/edge"
    assert peak <= BATCH_PEAK, f"K=4 batch peaks at {peak:.1f} B/edge"


# -- the dtype contract -------------------------------------------------------


def assert_same_result(got, want):
    """Every output array equal in value and dtype."""
    for name in ("tick", "pid", "state", "infector"):
        a, b = getattr(got.log, name), getattr(want.log, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    for name in ("state_counts", "memory_series"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_narrow_storage_computes_what_wide_storage_does(va, force_kernel):
    assert va.net.source.dtype == np.int32
    assert va.net.target.dtype == np.int32
    payload = bundle_payload(va)
    assert payload["net.source"].dtype == np.int32
    assert payload["net.target"].dtype == np.int32

    sim, _model = prepare_instance(va, PARAMS, seed=3)
    inc = sim.incident
    assert inc._rows.dtype == np.int32
    assert inc._others.dtype == np.int32
    assert inc._offsets.dtype == np.int64

    _pop, wide_net = build_region_network("VA", scale=TEST_SCALE,
                                          seed=TEST_SEED)
    assert wide_net.source.dtype == np.int64
    wide = RegionAssets(pop=va.pop, net=wide_net, truth=va.truth,
                        scale=va.scale)
    for kernel in KERNELS:
        with force_kernel(kernel):
            got, _ = run_instance(va, PARAMS, n_days=40, seed=3)
            want, _ = run_instance(wide, PARAMS, n_days=40, seed=3)
        assert_same_result(got, want)


def test_csr_edge_limit_is_per_edge(monkeypatch):
    # Rows hold edge numbers, so int32 rows take int32-max edges, not
    # half that (the 2E incidence positions are int64).
    assert interventions._MAX_EDGES == np.iinfo(np.int32).max
    over = np.broadcast_to(np.int32(0), (interventions._MAX_EDGES + 1,))
    with pytest.raises(ValueError, match="overflow int32 edge rows"):
        IncidentEdges(over, over, 1)  # refused before anything is built
    monkeypatch.setattr(interventions, "_MAX_EDGES", 4)
    ends = np.array([0, 1, 2, 3], dtype=np.int32)
    inc = IncidentEdges(ends, ends[::-1].copy(), 4)  # 8 incidences > 4
    assert inc.edges_of(np.arange(4)).tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="overflow int32 edge rows"):
        IncidentEdges(np.zeros(5, np.int32), np.ones(5, np.int32), 2)


# -- weight sharing -----------------------------------------------------------


def make_lane(assets, seed, *, mask):
    """A VHI + SC + SH lane, plus a mask mandate when ``mask``."""
    ivs = [make_vhi(0.8), make_sc(start=3), make_sh(0.6, start=4, end=20)]
    if mask:
        ivs.append(make_masking(0.7, start=5, end=25))
    sim = Simulation(build_covid_model_with_symp_fraction(0.9, 0.65),
                     assets.pop, assets.net, seed=seed, interventions=ivs)
    initialize_from_surveillance(sim, assets.truth.latest_by_county())
    return sim


def assert_shares_bundle_weight(sim, assets):
    assert sim.private_weight() is None
    assert sim.tick_weight is assets.net.weight
    assert np.shares_memory(sim.tick_weight, assets.net.weight)


def assert_private_weight(sim, assets):
    own = sim.private_weight()
    assert own is sim.tick_weight
    assert own.dtype == np.float64
    assert not np.shares_memory(own, assets.net.weight)


def test_only_a_masking_lane_copies_the_weights(va):
    before = va.net.weight.copy()
    plain = make_lane(va, 1, mask=False)
    plain.run(30)
    assert_shares_bundle_weight(plain, va)
    masked = make_lane(va, 1, mask=True)
    masked.run(10)  # the mandate runs from tick 5 to 25
    assert_private_weight(masked, va)
    assert (masked.tick_weight != before).any()
    np.testing.assert_array_equal(va.net.weight, before)


@pytest.mark.parametrize("kernel", KERNELS)
def test_batch_mixing_shared_and_private_weights_equals_solo(va, kernel,
                                                            force_kernel):
    masks = (False, True, False, True)
    with force_kernel(kernel):
        lanes = [make_lane(va, 20 + i, mask=m) for i, m in enumerate(masks)]
        results = BatchedSimulation(lanes).run(30)
        for i, (sim, m) in enumerate(zip(lanes, masks)):
            check = (assert_private_weight if m
                     else assert_shares_bundle_weight)
            check(sim, va)
            want = make_lane(va, 20 + i, mask=m).run(30)
            assert_same_result(results[i], want)


# -- masking + restore on a mapped, read-only bundle --------------------------


@pytest.fixture(scope="module")
def mapped(va, tmp_path_factory):
    """``va`` published to a store and mapped back read-only."""
    store = ContentStore(tmp_path_factory.mktemp("edge-bytes-store"))
    digest = AssetKey("VA", TEST_SCALE, TEST_SEED).digest("edge-bytes")
    store.put(digest, bundle_payload(va), family=ASSETS_NAMESPACE)
    assets = assets_from_payload(store.get(digest, mapped=True))
    assert not assets.net.weight.flags.writeable
    assert assets.net.source.dtype == np.int32
    return assets


def run_from(sim, snapshot, n_days):
    engine = BatchedSimulation([sim])
    start = engine.restore_state([snapshot])
    engine.begin()
    while sim.tick < n_days:
        engine.step()
    engine.flush(n_days - start)
    return engine.finish()[0]


def test_masking_restore_on_mapped_bundle_is_bit_identical(va, mapped):
    want = make_lane(va, 5, mask=True).run(30)

    sim = make_lane(mapped, 5, mask=True)
    engine = BatchedSimulation([sim])
    engine.begin()
    snaps, flushed = {}, 0
    while sim.tick < 30:
        engine.step()
        if sim.tick in (3, 12):
            [snaps[sim.tick]] = engine.save_state(
                ticks_since_flush=sim.tick - flushed)
            flushed = sim.tick
    engine.flush(30 - flushed)
    assert_same_result(engine.finish()[0], want)
    # Before the mandate the lane reads the mapped column and its
    # snapshot carries no weights; after it, its own float64 copy.
    assert "edge_weight" not in snaps[3]
    assert snaps[12]["edge_weight"].dtype == np.float64

    for tick, snap in snaps.items():
        again = make_lane(mapped, 5, mask=True)
        assert_same_result(run_from(again, snap, 30), want)
        assert_private_weight(again, mapped)


def test_batched_masking_restore_on_mapped_bundle_is_bit_identical(va,
                                                                   mapped):
    masks = (True, False)
    want = [make_lane(va, 40 + i, mask=m).run(30)
            for i, m in enumerate(masks)]
    batch = BatchedSimulation([make_lane(mapped, 40 + i, mask=m)
                               for i, m in enumerate(masks)])
    batch.begin()
    for _ in range(12):
        batch.step()
    snaps = batch.save_state(ticks_since_flush=12)
    assert "edge_weight" in snaps[0] and "edge_weight" not in snaps[1]

    lanes = [make_lane(mapped, 40 + i, mask=m) for i, m in enumerate(masks)]
    again = BatchedSimulation(lanes)
    again.restore_state(snaps)
    for _ in range(18):
        again.step()
    again.flush(18)
    for got, w in zip(again.finish(), want):
        assert_same_result(got, w)
    assert_private_weight(lanes[0], mapped)
    assert_shares_bundle_weight(lanes[1], mapped)
