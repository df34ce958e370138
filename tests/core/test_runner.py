"""Simulation-instance runner tests."""

import numpy as np
import pytest

from repro.core.runner import (
    build_interventions,
    confirmed_series,
    load_region_assets,
    observed_series,
    run_instance,
)


@pytest.fixture(scope="module")
def assets():
    return load_region_assets("VT", 1e-3, 7)


def test_assets_cached():
    a = load_region_assets("VT", 1e-3, 7)
    b = load_region_assets("VT", 1e-3, 7)
    assert a is b


def test_interventions_from_params():
    ivs = build_interventions({})
    assert [iv.name for iv in ivs] == ["SC"]
    ivs = build_interventions({
        "SH_COMPLIANCE": 0.5, "VHI_COMPLIANCE": 0.4,
        "reopen_level": 0.5, "tracing_compliance": 0.3,
    })
    names = [iv.name for iv in ivs]
    assert names == ["SC", "VHI", "SH", "RO", "D1CT"]


def test_lowercase_param_aliases():
    ivs = build_interventions({"sh_compliance": 0.5, "vhi_compliance": 0.3})
    assert {"SH", "VHI"} <= {iv.name for iv in ivs}


def test_run_instance_basic(assets):
    result, model = run_instance(
        assets, {"TAU": 0.25, "SYMP": 0.6}, n_days=40, seed=1)
    assert result.n_days == 40
    assert model.transmissibility == 0.25
    series = confirmed_series(result, model, 40)
    assert series.shape == (41,)
    assert (np.diff(series) >= 0).all()


def test_tau_increases_cases(assets):
    finals = []
    for tau in (0.05, 0.5):
        totals = []
        for seed in range(4):
            result, model = run_instance(
                assets, {"TAU": tau}, n_days=60, seed=seed)
            totals.append(confirmed_series(result, model, 60)[-1])
        finals.append(np.mean(totals))
    assert finals[1] > finals[0]


def test_observed_series_scaling(assets):
    obs = observed_series(assets.truth, 1e-3, 50)
    assert obs.shape == (51,)
    np.testing.assert_allclose(
        obs, assets.truth.state_cumulative()[:51] * 1e-3)


def test_observed_series_too_long(assets):
    with pytest.raises(ValueError):
        observed_series(assets.truth, 1e-3, 10_000)


def test_seeding_uses_surveillance(assets):
    result, _model = run_instance(assets, {}, n_days=0, seed=2)
    assert result.log.size > 0  # seeds recorded at tick 0
    assert (result.log.tick == 0).all()


def test_a_param_the_runner_does_not_read_changes_nothing(assets):
    """The runner reads the names its docstring lists; any other (a
    retired ``backend`` knob included) leaves the run as it was."""
    series = []
    for params in ({"TAU": 0.3}, {"TAU": 0.3, "backend": "sparse"},
                   {"TAU": 0.3, "BACKEND": "dense"}):
        result, model = run_instance(assets, params, n_days=20, seed=5)
        series.append(confirmed_series(result, model, 20))
    np.testing.assert_array_equal(series[0], series[1])
    np.testing.assert_array_equal(series[0], series[2])
