"""Weekly-briefing generation tests."""

import pytest

from repro.core import report as report_module
from repro.core.calibration_wf import run_calibration_workflow
from repro.core.prediction_wf import run_prediction_workflow
from repro.core.report import generate_weekly_report


@pytest.fixture(scope="module")
def pipeline():
    cal = run_calibration_workflow(
        "VT", n_cells=12, n_days=50, scale=1e-2, seed=33,
        mcmc_samples=200, mcmc_burn_in=200)
    pred = run_prediction_workflow(
        cal, n_configurations=4, replicates=2, horizon=28, seed=34)
    return cal, pred


def test_report_structure(pipeline):
    cal, pred = pipeline
    report = generate_weekly_report(cal, pred)
    assert report.region_code == "VT"
    text = report.text
    for section in ("SITUATION", "CALIBRATED PARAMETERS", "FORECAST",
                    "HOSPITAL CAPACITY", "QUALITY REVIEW"):
        assert section in text
    # All four calibrated parameters are reported.
    for name in cal.space.names:
        assert name in text


def test_report_forecast_rows(pipeline, monkeypatch):
    monkeypatch.setattr(report_module, "FORECAST_HORIZONS", (7, 21))
    cal, pred = pipeline
    report = generate_weekly_report(cal, pred)
    assert "+ 7d" in report.text
    assert "+21d" in report.text
    assert "+14d" not in report.text


def test_report_embeds_review(pipeline):
    cal, pred = pipeline
    report = generate_weekly_report(cal, pred)
    assert report.review is not None
    if report.review.accepted:
        assert "APPROVED" in report.text
    else:
        assert "HELD" in report.text
        assert "failed check" in report.text


def test_trend_labels():
    import numpy as np

    from repro.core.report import _trend_label

    assert _trend_label(np.zeros(40)) == "flat"
    accel = np.concatenate([np.linspace(0, 10, 20),
                            10 + np.linspace(0, 60, 20)])
    assert _trend_label(accel) == "accelerating"
    decel = np.concatenate([np.linspace(0, 60, 20),
                            60 + np.linspace(0, 10, 20)])
    assert _trend_label(decel) == "decelerating"
    steady = np.linspace(0, 100, 40)
    assert _trend_label(steady) == "steady"
    assert _trend_label(np.zeros(5)) == "insufficient history"
