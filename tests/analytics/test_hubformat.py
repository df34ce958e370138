"""Forecast-hub format tests."""

import numpy as np
import pytest

from repro.analytics.hubformat import (
    HUB_HORIZONS,
    HUB_QUANTILES,
    ensemble_to_hub_rows,
    read_hub_csv,
    validate_hub_rows,
    write_hub_csv,
)


@pytest.fixture()
def ensemble():
    rng = np.random.default_rng(0)
    base = np.cumsum(rng.poisson(5, size=(40, 100)), axis=1)
    return base.astype(np.float64)


def test_rows_structure(ensemble):
    rows = ensemble_to_hub_rows(
        ensemble, location="VA", target="cum case", forecast_start=60)
    horizons = {r.horizon_days for r in rows}
    assert horizons == {7, 14, 21, 28}
    per_horizon = [r for r in rows if r.horizon_days == 7]
    assert sum(1 for r in per_horizon if r.type == "point") == 1
    assert sum(1 for r in per_horizon if r.type == "quantile") == len(
        HUB_QUANTILES)


def test_quantiles_monotone(ensemble):
    rows = ensemble_to_hub_rows(
        ensemble, location="VA", target="cum case", forecast_start=60)
    validate_hub_rows(rows)  # raises on violation


def test_point_is_median(ensemble):
    rows = ensemble_to_hub_rows(
        ensemble, location="VA", target="cum case", forecast_start=60)
    point = next(r for r in rows if r.type == "point")
    q50 = next(r for r in rows
               if r.type == "quantile" and r.quantile == 0.50)
    assert point.value == pytest.approx(q50.value)


def test_horizon_beyond_window(ensemble):
    with pytest.raises(ValueError, match="beyond"):
        ensemble_to_hub_rows(ensemble, location="VA", target="x",
                             forecast_start=95)


def test_csv_roundtrip(tmp_path, ensemble):
    rows = ensemble_to_hub_rows(
        ensemble, location="VA", target="cum case", forecast_start=60)
    path = tmp_path / "forecast.csv"
    text = write_hub_csv(rows, path)
    assert path.read_text() == text
    back = read_hub_csv(path)
    assert len(back) == len(rows)
    assert back[0].location == "VA"
    vals_in = [r.value for r in rows]
    vals_out = [r.value for r in back]
    np.testing.assert_allclose(vals_out, vals_in, atol=1e-3)


def test_validation_catches_bad_quantiles(ensemble):
    rows = ensemble_to_hub_rows(
        ensemble, location="VA", target="cum case", forecast_start=60)
    # Corrupt one quantile to break monotonicity.
    bad = [r for r in rows]
    idx = next(i for i, r in enumerate(bad)
               if r.type == "quantile" and r.quantile == 0.99)
    from repro.analytics.hubformat import HubRow
    bad[idx] = HubRow("VA", "cum case", 7, "quantile", 0.99, -1.0)
    with pytest.raises(ValueError, match="monotone"):
        validate_hub_rows(bad)


def test_prediction_workflow_output_is_hub_ready():
    """End-to-end: the prediction workflow's ensemble renders to a valid
    hub submission."""
    from repro.core.calibration_wf import run_calibration_workflow
    from repro.core.prediction_wf import run_prediction_workflow

    cal = run_calibration_workflow(
        "VT", n_cells=10, n_days=50, scale=1e-3, seed=13,
        mcmc_samples=150, mcmc_burn_in=150)
    pred = run_prediction_workflow(cal, n_configurations=3, replicates=2,
                                   horizon=28, seed=14)
    rows = ensemble_to_hub_rows(
        pred.confirmed_ensemble, location="VT", target="cum case",
        forecast_start=50)
    validate_hub_rows(rows)
    assert len(rows) == len(HUB_HORIZONS) * (1 + len(HUB_QUANTILES))
