"""Integration tests: calibration -> prediction handoff, economic workflow.

These run the real workflows at miniature scale (tiny regions, few cells)
to verify the end-to-end plumbing the paper's Figure 1 describes.  Both
workflows run through the one fan-out; each is checked bit for bit
against the serial ``run_instance`` loop it replaced, written out here,
and a repeat with a store must simulate nothing.
"""

import numpy as np
import pytest

from repro.analytics.aggregate import summarize
from repro.analytics.ensembles import ensemble_band
from repro.analytics.targets import ALL_TARGETS, target_series
from repro.core.calibration_wf import run_calibration_workflow
from repro.core.counterfactual_wf import run_economic_workflow
from repro.core.designs import ExperimentDesign, factorial_cells
from repro.core.prediction_wf import (
    run_prediction_workflow,
    what_if_expansion,
)
from repro.core.runner import (
    confirmed_series,
    load_region_assets,
    run_instance,
)
from repro.economics.costs import compute_medical_costs
from repro.obs.registry import global_registry
from repro.store.cas import ContentStore


def _memo(name):
    """The process registry's running ``memo.*`` count."""
    return global_registry().value(f"memo.{name}")


def _assert_same_band(a, b):
    for field in ("median", "lower", "upper"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert a.level == b.level


@pytest.fixture(scope="module")
def calibration():
    return run_calibration_workflow(
        "VT", n_cells=15, n_days=60, scale=1e-3, seed=3,
        mcmc_samples=300, mcmc_burn_in=300)


def test_calibration_outputs(calibration):
    assert calibration.prior_design.shape == (15, 4)
    assert calibration.sim_series.shape == (15, 61)
    assert calibration.observed.shape == (61,)
    assert calibration.posterior.theta_samples.shape[1] == 4


def test_posterior_within_prior_ranges(calibration):
    space = calibration.space
    assert space.contains(calibration.posterior.theta_samples).all()


def test_posterior_configurations_dicts(calibration):
    rng = np.random.default_rng(0)
    configs = calibration.posterior_configurations(5, rng)
    assert len(configs) == 5
    assert set(configs[0]) == {"TAU", "SYMP", "SH_COMPLIANCE",
                               "VHI_COMPLIANCE"}


def test_prediction_workflow(calibration):
    pred = run_prediction_workflow(
        calibration, n_configurations=3, replicates=2, horizon=14, seed=4)
    assert pred.n_members == 6
    total = calibration.observed.shape[0] - 1 + 14 + 1
    assert pred.confirmed_ensemble.shape == (6, total)
    assert pred.confirmed_band.median.shape == (total,)
    assert set(pred.target_bands) >= {"confirmed", "deaths"}
    assert pred.what_if == ("as-is",) * 6


def test_prediction_with_what_if(calibration):
    pred = run_prediction_workflow(
        calibration, n_configurations=1, replicates=1, horizon=7,
        reopen_levels=(0.25, 0.75), tracing_compliances=(0.5,), seed=5)
    assert pred.n_members == 2
    assert "RO=0.25+CT=0.5" in pred.what_if


def test_what_if_expansion_shapes():
    base = {"TAU": 0.2}
    assert what_if_expansion(base) == [("as-is", {"TAU": 0.2})]
    expanded = what_if_expansion(base, reopen_levels=(0.25, 0.5),
                                 tracing_compliances=(0.3, 0.6))
    assert len(expanded) == 4
    labels = [lbl for lbl, _ in expanded]
    assert "RO=0.25+CT=0.3" in labels
    # Base params untouched.
    assert base == {"TAU": 0.2}


def test_economic_workflow_small():
    from repro.core.designs import ExperimentDesign, factorial_cells

    cells = factorial_cells({
        "vhi_compliance": [0.3, 0.9],
        "sh_compliance": [0.3, 0.9],
    })
    design = ExperimentDesign("economic", cells, ("VT",), 2)
    result = run_economic_workflow(
        design=design, n_days=70, scale=1e-3, seed=6)
    assert len(result.outcomes) == 4
    for o in result.outcomes:
        assert o.total_cost >= 0
        assert 0.0 <= o.mean_attack_rate <= 1.0
    assert result.cheapest().total_cost <= result.most_expensive().total_cost
    table = result.cost_table()
    assert "vhi_compliance" in table


def test_economic_costs_scale_with_epidemic():
    """Scenarios with bigger outbreaks cost more."""
    from repro.core.designs import ExperimentDesign, factorial_cells

    cells = factorial_cells({"TAU": [0.03, 0.5]})
    design = ExperimentDesign("economic", cells, ("VT",), 3)
    result = run_economic_workflow(
        design=design, n_days=80, scale=1e-3, seed=7)
    by_tau = {o.cell.params["TAU"]: o for o in result.outcomes}
    assert by_tau[0.5].mean_attack_rate > by_tau[0.03].mean_attack_rate
    assert by_tau[0.5].total_cost > by_tau[0.03].total_cost


def _reference_prediction(cal, *, n_configurations, replicates, horizon,
                          seed):
    """The serial loop the prediction workflow ran before the fan-out."""
    rng = np.random.default_rng((seed, 23))
    total_days = cal.observed.shape[0] - 1 + horizon
    curves, per_target = [], {t.name: [] for t in ALL_TARGETS}
    member = 0
    for params in cal.posterior_configurations(n_configurations, rng):
        for _rep in range(replicates):
            result, model = run_instance(
                cal.assets, params, n_days=total_days,
                seed=seed + 5000 + member)
            member += 1
            curves.append(confirmed_series(result, model, total_days))
            summary = summarize(result, model)
            for t in ALL_TARGETS:
                per_target[t.name].append(target_series(summary, model, t))
    return np.vstack(curves), {name: ensemble_band(np.vstack(series))
                               for name, series in per_target.items()}


def test_prediction_matches_serial_reference(calibration):
    pred = run_prediction_workflow(
        calibration, n_configurations=3, replicates=2, horizon=14, seed=4)
    ensemble, bands = _reference_prediction(
        calibration, n_configurations=3, replicates=2, horizon=14, seed=4)
    np.testing.assert_array_equal(pred.confirmed_ensemble, ensemble)
    assert set(pred.target_bands) == set(bands)
    for name, band in bands.items():
        _assert_same_band(pred.target_bands[name], band)


def test_prediction_repeat_is_served_from_store(calibration, tmp_path):
    store = ContentStore(tmp_path / "store")
    kwargs = dict(n_configurations=2, replicates=2, horizon=7, seed=8,
                  store=store)
    cold = run_prediction_workflow(calibration, **kwargs)
    misses, hits = _memo("misses"), _memo("hits")
    warm = run_prediction_workflow(calibration, **kwargs)
    assert _memo("misses") == misses  # the repeat simulated nothing
    assert _memo("hits") == hits + 4
    np.testing.assert_array_equal(warm.confirmed_ensemble,
                                  cold.confirmed_ensemble)
    for name, band in cold.target_bands.items():
        _assert_same_band(warm.target_bands[name], band)


def _small_design():
    cells = factorial_cells({"sh_compliance": [0.3, 0.9]})
    return ExperimentDesign("economic", cells, ("VT", "WY"), 2)


def _reference_economic(design, *, n_days, scale, seed):
    """The serial loop the economic workflow ran before the fan-out:
    per cell, (attack rates, costs, summaries) in region x replicate
    order."""
    out, run_idx = [], 0
    for cell in design.cells:
        rates, costs, summaries = [], [], []
        for region in design.regions:
            assets = load_region_assets(region, scale, seed)
            for _rep in range(design.replicates):
                result, model = run_instance(
                    assets, cell.params, n_days=n_days,
                    seed=seed + 9000 + run_idx)
                run_idx += 1
                summary = summarize(result, model)
                rates.append(result.attack_rate(model))
                costs.append(compute_medical_costs(summary, model,
                                                   scale=scale))
                summaries.append(summary)
        out.append((rates, costs, summaries))
    return out


def test_economic_matches_serial_reference():
    design = _small_design()
    result = run_economic_workflow(
        design=design, n_days=40, scale=1e-3,
        seed=6)
    reference = _reference_economic(design, n_days=40, scale=1e-3, seed=6)
    n_runs = design.n_regions * design.replicates
    for outcome, (rates, costs, summaries) in zip(result.outcomes,
                                                  reference):
        assert outcome.mean_attack_rate == float(np.mean(rates))
        for part in ("outpatient", "hospital", "ventilator", "admissions"):
            total = 0.0
            for c in costs:
                total += getattr(c, part)
            assert getattr(outcome.costs, part) == (
                total / n_runs * design.n_regions)
        assert len(outcome.summaries) == len(summaries)
        for got, want in zip(outcome.summaries, summaries):
            assert (got.region_code, got.n_days) == (want.region_code,
                                                     want.n_days)
            for kind in ("new", "current", "cumulative"):
                np.testing.assert_array_equal(getattr(got, kind),
                                              getattr(want, kind))


def test_economic_repeat_is_served_from_store(tmp_path):
    design = _small_design()
    kwargs = dict(design=design, n_days=20,
                  scale=1e-3, seed=12,
                  store=ContentStore(tmp_path / "store"))
    cold = run_economic_workflow(**kwargs)
    misses = _memo("misses")
    warm = run_economic_workflow(**kwargs)
    assert _memo("misses") == misses
    assert warm.cost_table() == cold.cost_table()
    for w, c in zip(warm.outcomes, cold.outcomes):
        assert w.costs == c.costs
        assert w.mean_attack_rate == c.mean_attack_rate
