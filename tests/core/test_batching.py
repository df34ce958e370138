"""Replicate-batching policy and its fan-out integration.

Covers the grouping layer (:mod:`repro.core.batching`), the batched route
through :func:`~repro.core.parallel.supervise_instances` (bit-identical to
the solo path, the group as the failure domain, per-instance quarantine
records) and the store integration (per-replicate cache keys).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import batching
from repro.core.batching import (
    batch_groups,
    group_key,
)
from repro.core.parallel import (
    InstanceSpec,
    run_instances,
    supervise_instances,
)
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan, RetryPolicy
from repro.store.cas import ContentStore
from repro.store.keys import instance_key
from repro.store.memo import run_instances_memoized

pytestmark = pytest.mark.fast

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)


def make_specs(n=4, region="VT", n_days=12, tau=0.3, seed0=100,
               asset_seed=0):
    return [
        InstanceSpec(region_code=region, params={"TAU": tau},
                     n_days=n_days, scale=1e-3, seed=seed0 + 17 * i,
                     label=f"{region}-i{i}", asset_seed=asset_seed)
        for i in range(n)
    ]


# ---- grouping policy -------------------------------------------------------


def test_group_key_ignores_seed_params_label():
    a, b = make_specs(2)
    assert a.seed != b.seed and a.label != b.label
    assert group_key(a) == group_key(b)
    hot = InstanceSpec(region_code="VT", params={"TAU": 0.9, "SYMP": 0.5},
                       n_days=12, scale=1e-3, seed=1, asset_seed=0)
    assert group_key(hot) == group_key(a)


@pytest.mark.parametrize("field,value", [
    ("region_code", "RI"),
    ("scale", 2e-3),
    ("asset_seed", 7),
    ("n_days", 13),
])
def test_group_key_separates_asset_fields(field, value):
    base = make_specs(1)[0]
    other = InstanceSpec(**{**{
        "region_code": base.region_code, "params": base.params,
        "n_days": base.n_days, "scale": base.scale, "seed": base.seed + 1,
        "asset_seed": base.asset_seed}, field: value})
    assert group_key(base) != group_key(other)


def test_batch_groups_order_and_membership():
    vt = make_specs(3, region="VT")
    ri = make_specs(2, region="RI")
    specs = [vt[0], ri[0], vt[1], ri[1], vt[2]]  # interleaved
    groups = batch_groups(specs)
    # First-occurrence key order, input order within a group.
    assert groups == [[0, 2, 4], [1, 3]]
    covered = sorted(i for g in groups for i in g)
    assert covered == list(range(len(specs)))


def test_batch_groups_cap_split(monkeypatch):
    monkeypatch.setattr(batching, "MAX_BATCH_LANES", 3)
    specs = make_specs(7)
    groups = batch_groups(specs)
    assert groups == [[0, 1, 2], [3, 4, 5], [6]]


def lone(regions, n_days=12, scale=1e-3):
    """One spec per region: every spec is alone under its group key."""
    return [make_specs(1, region=r, n_days=n_days, seed0=i)[0]
            if scale == 1e-3 else InstanceSpec(
                region_code=r, params={"TAU": 0.3}, n_days=n_days,
                scale=scale, seed=i, asset_seed=0)
            for i, r in enumerate(regions)]


def test_national_sweep_packs_lone_regions_under_the_largest():
    """The 17-region sweep: next-fit in input order, each union's persons
    within CA's, the largest lone spec."""
    from repro.synthpop.regions import BY_POPULATION, get_region

    regions = list(reversed(BY_POPULATION))[::3]
    groups = batch_groups(lone(regions))
    assert [[regions[i] for i in g] for g in groups] == [
        ["CA"], ["NY", "OH"], ["MI", "WA", "TN", "MD", "MN"],
        ["LA", "OK", "IA", "MS", "NE", "HI", "MT", "SD", "DC"]]
    cap = get_region("CA").scaled_population(1e-3)
    for g in groups:
        assert sum(get_region(regions[i]).scaled_population(1e-3)
                   for i in g) <= cap


def test_union_cap_and_input_order(monkeypatch):
    """A union takes the next lone spec while it fits, else a new one
    starts; members keep input order, and the lane cap still holds."""
    # VA 8,536 persons; WY 579, VT 624, DC 706, ND 762; RI 1,059.
    specs = lone(["WY", "VA", "VT", "DC", "ND", "RI"])
    assert batch_groups(specs) == [[0], [1], [2, 3, 4, 5]]
    assert batch_groups(lone(["VA", "WY", "VT", "DC", "ND", "RI"])) == [
        [0], [1, 2, 3, 4, 5]]
    monkeypatch.setattr(batching, "MAX_BATCH_LANES", 2)
    assert batch_groups(lone(["VA", "WY", "VT", "DC", "ND", "RI"])) == [
        [0], [1, 2], [3, 4], [5]]
    # Similar sizes: nothing fits under the largest, so all run alone.
    assert batch_groups(lone(["WY", "VT", "DC", "ND"])) == [
        [0], [1], [2], [3]]


def test_unions_pack_one_horizon_and_one_scale_key_apart():
    """Lone specs of different horizons never share a union, and the cap
    is per horizon."""
    specs = lone(["VA", "WY", "VT"]) + lone(["DC", "ND"], n_days=13)
    assert batch_groups(specs) == [[0], [1, 2], [3], [4]]
    # Another scale is another asset key: VA at 2e-3 is lone too.
    specs = lone(["VA", "WY"]) + lone(["VA"], scale=2e-3)
    assert batch_groups(specs) == [[0, 1], [2]]


def test_same_network_groups_are_never_merged():
    """Replicates keep their own groups, however small; only the lone
    specs are packed, around them."""
    vt = make_specs(2, region="VT")
    wy = make_specs(2, region="WY", seed0=300)
    specs = [vt[0], *lone(["VA", "DC", "ND"]), wy[0], vt[1], wy[1]]
    assert batch_groups(specs) == [[0, 5], [1], [2, 3], [4, 6]]


def test_unknown_region_runs_alone():
    bad = dataclasses.replace(make_specs(1)[0], region_code="ZZ", seed=9)
    specs = lone(["VA", "WY"]) + [bad] + lone(["VT"])
    assert batch_groups(specs) == [[0], [1, 3], [2]]


@pytest.mark.parametrize("shape,want", [
    # night_replicates: 4 regions x 2 cells x 8 replicates, 100 days.
    ((("VA", "CO", "KS", "VT"), 16, 100),
     [list(range(i * 16, (i + 1) * 16)) for i in range(4)]),
    # preempted_resume: 2 regions x 2 replicates, 100 days.
    ((("VA", "KS"), 2, 100), [[0, 1], [2, 3]]),
    # A broker batch with a single miss.
    ((("VT",), 1, 100), [[0]]),
])
def test_benchmark_shapes_keep_their_groups(shape, want):
    regions, per_region, n_days = shape
    specs = [s for r in regions
             for s in make_specs(per_region, region=r, n_days=n_days)]
    assert batch_groups(specs) == want


# ---- batched fan-out: equivalence and telemetry ----------------------------


def test_batched_run_instances_matches_unbatched():
    """The batched route returns byte-identical outcomes to the solo
    path: each spec fanned out alone is a group of one."""
    specs = make_specs(5) + make_specs(2, region="RI", seed0=900)
    reg_on = MetricsRegistry()
    batched = run_instances(specs, parallel=False, registry=reg_on)

    reg_off = MetricsRegistry()
    solo = [run_instances([s], parallel=False, registry=reg_off)[0]
            for s in specs]

    for b, s in zip(batched, solo):
        assert b.spec == s.spec
        np.testing.assert_array_equal(b.confirmed, s.confirmed)
        assert b.attack_rate == s.attack_rate
        assert b.transitions == s.transitions

    on = reg_on.snapshot()
    assert on["batch.groups"] == 2  # VT x5 and RI x2
    assert on["batch.size"] >= 2
    assert on["runner.instances"] == len(specs)
    assert "batch.size" not in reg_off.snapshot()
    assert reg_off.snapshot()["runner.instances"] == len(specs)


def test_incompatible_group_runs_as_singles(monkeypatch):
    """A group the batched constructor rejects is re-run by the worker
    entry as one group per spec — the solo reference path, bit for bit."""
    from repro.core import runner
    from tests.epihiper.test_batched_equivalence import dwell_variant_model

    real = runner.model_for_params
    monkeypatch.setattr(
        runner, "model_for_params",
        lambda params: (dwell_variant_model(params["TAU"])
                        if params.get("VARIANT") else real(params)))
    specs = make_specs(3)
    specs[1] = dataclasses.replace(
        specs[1], params={"TAU": 0.3, "VARIANT": 1})
    reg = MetricsRegistry()
    outcomes = run_instances(specs, parallel=False, registry=reg)

    for spec, got in zip(specs, outcomes):
        assets = runner.load_region_assets(
            spec.region_code, scale=spec.scale, seed=spec.asset_seed)
        result, model = runner.run_instance(
            assets, spec.params, n_days=spec.n_days, seed=spec.seed)
        np.testing.assert_array_equal(
            got.confirmed,
            runner.confirmed_series(result, model, spec.n_days))
        assert got.attack_rate == result.attack_rate(model)
        assert got.transitions == result.log.size
    snap = reg.snapshot()
    assert snap["batch.incompatible"] == 1
    assert snap["batch.groups"] == 1
    assert snap["runner.instances"] == 3


def test_batched_pooled_matches_serial():
    specs = make_specs(4)
    serial = run_instances(specs, parallel=False)
    pooled = run_instances(specs, parallel=True, max_workers=2)
    for s, p in zip(serial, pooled):
        np.testing.assert_array_equal(s.confirmed, p.confirmed)
        assert s.attack_rate == p.attack_rate


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
@pytest.mark.parametrize("rule", [
    "worker.crash:times=1,match=i1",
    "worker.exception:times=1,match=i1",
    "worker.exception:match=i1",  # fires on every attempt
])
def test_a_group_fails_and_retries_as_a_unit(rule, pooled):
    """A fault in one lane fails its whole group's attempt, whichever
    site fired and wherever the group ran: the group recovers whole, as
    one group again, or is quarantined whole, one record per spec."""
    from repro.core import runner

    specs = make_specs(4)
    reg = MetricsRegistry()
    res = supervise_instances(specs, parallel=pooled, max_workers=2,
                              retry=FAST_RETRY, registry=reg,
                              faults=FaultPlan.parse([rule], seed=0))

    assert res.attempts == FAST_RETRY.max_attempts
    assert reg.value("batch.groups") == 1
    if "times=1" not in rule:
        assert [r is None for r in res.results] == [True] * 4
        assert [(q.key, q.item, q.attempts) for q in res.quarantined] == [
            (s.label, s, FAST_RETRY.max_attempts) for s in specs]
        return
    assert res.ok
    # The retry ran all four lanes as one batch, not three plus a single.
    assert reg.value("batch.size") == 4
    assert reg.value("runner.instances") == 4
    crashed_pool = pooled and rule.startswith("worker.crash")
    assert (res.retries, res.pool_rebuilds) == ((0, 1) if crashed_pool
                                                else (1, 0))
    for spec, got in zip(specs, res.results):
        assets = runner.load_region_assets(
            spec.region_code, scale=spec.scale, seed=spec.asset_seed)
        result, model = runner.run_instance(
            assets, spec.params, n_days=spec.n_days, seed=spec.seed)
        assert got.confirmed.tobytes() == runner.confirmed_series(
            result, model, spec.n_days).tobytes()
        assert got.attack_rate == result.attack_rate(model)
        assert got.transitions == result.log.size


def test_memoized_batches_land_under_individual_keys(tmp_path):
    """One batched execution, K cache entries — then K pure hits."""
    specs = make_specs(4)
    keys = {instance_key(s) for s in specs}
    assert len(keys) == len(specs)  # per-replicate keys stay distinct

    store = ContentStore(tmp_path / "store")
    reg_cold = MetricsRegistry()
    cold = run_instances_memoized(specs, store=store, parallel=False,
                                  registry=reg_cold)
    snap_cold = reg_cold.snapshot()
    assert snap_cold["memo.misses"] == 4 and snap_cold["memo.hits"] == 0
    assert snap_cold["batch.groups"] == 1

    reg_warm = MetricsRegistry()
    warm = run_instances_memoized(specs, store=store, parallel=False,
                                  registry=reg_warm)
    snap_warm = reg_warm.snapshot()
    assert snap_warm["memo.hits"] == 4 and snap_warm["memo.misses"] == 0
    for c, w in zip(cold, warm):
        np.testing.assert_array_equal(c.confirmed, w.confirmed)
        assert c.attack_rate == w.attack_rate
