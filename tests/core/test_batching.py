"""Replicate-batching policy and its fan-out integration.

Covers the grouping layer (:mod:`repro.core.batching`), the batched route
through :func:`~repro.core.parallel.supervise_instances` (bit-identical to
the solo path, the group as the failure domain, per-instance quarantine
records) and the store integration (per-replicate cache keys).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.batching import (
    batch_groups,
    batching_enabled,
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


def test_batch_groups_cap_split():
    specs = make_specs(7)
    groups = batch_groups(specs, max_lanes=3)
    assert groups == [[0, 1, 2], [3, 4, 5], [6]]


def test_batching_env_knobs(monkeypatch):
    monkeypatch.delenv("REPRO_BATCH_REPLICATES", raising=False)
    assert batching_enabled()
    for token in ("0", "false", "OFF", " no "):
        monkeypatch.setenv("REPRO_BATCH_REPLICATES", token)
        assert not batching_enabled()
    monkeypatch.setenv("REPRO_BATCH_REPLICATES", "1")
    assert batching_enabled()


# ---- batched fan-out: equivalence and telemetry ----------------------------


def test_batched_run_instances_matches_unbatched(monkeypatch):
    """The batched route returns byte-identical outcomes to the solo path."""
    specs = make_specs(5) + make_specs(2, region="RI", seed0=900)
    reg_on = MetricsRegistry()
    batched = run_instances(specs, parallel=False, registry=reg_on)

    monkeypatch.setenv("REPRO_BATCH_REPLICATES", "0")
    reg_off = MetricsRegistry()
    solo = run_instances(specs, parallel=False, registry=reg_off)

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


def test_batching_disabled_env_skips_grouping(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH_REPLICATES", "off")
    reg = MetricsRegistry()
    res = supervise_instances(make_specs(3), parallel=False, registry=reg)
    assert res.ok
    snap = reg.snapshot()
    assert "batch.groups" not in snap and "batch.size" not in snap
