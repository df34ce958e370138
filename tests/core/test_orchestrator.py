"""Nightly orchestration tests (Figures 1-2, Table II ranges)."""

import pytest

from repro.core.designs import economic_design, prediction_design
from repro.core.orchestrator import orchestrate_night, weekly_timeline
from repro.params import GB, MB


@pytest.fixture(scope="module")
def night():
    return orchestrate_night(prediction_design(), seed=0)


def test_fits_nightly_window(night):
    """The production requirement: the batch completes inside 10 hours."""
    assert night.fits_window
    assert 0.5 < night.remote_hours < 10.0


def test_high_utilization_with_ffdt(night):
    assert night.utilization > 0.9


def test_config_transfer_within_table_ii_range(night):
    moved = night.link.bytes_moved(src="rivanna", dst="bridges")
    assert 100 * MB <= moved <= 8.7 * GB


def test_summary_transfer_within_table_ii_range(night):
    moved = night.link.bytes_moved(src="bridges", dst="rivanna")
    assert 120 * MB <= moved <= 70 * GB


def test_task_graph_executed_in_order(night):
    names = [r.task_name for r in night.workflow_run.runs]
    assert names.index("generate-configurations") < names.index(
        "transfer-configurations")
    assert names.index("run-simulations") < names.index(
        "transfer-summaries")
    assert names[-1] == "home-analytics"


def test_simulation_duration_patched(night):
    sim_run = next(r for r in night.workflow_run.runs
                   if r.task_name == "run-simulations")
    assert sim_run.duration == pytest.approx(night.schedule.makespan)


def test_nfdt_longer_than_ffdt():
    nf = orchestrate_night(prediction_design(), algorithm="NFDT-DC", seed=0)
    ff = orchestrate_night(prediction_design(), algorithm="FFDT-DC", seed=0)
    assert nf.schedule.makespan > ff.schedule.makespan
    assert nf.utilization < ff.utilization


def test_onetime_staging():
    rep = orchestrate_night(prediction_design(),
                            include_onetime_transfer=True, seed=0)
    moved = rep.link.bytes_moved(src="rivanna", dst="bridges")
    assert moved > 2_000 * GB  # includes the 2TB one-time staging


def test_summary_text(night):
    text = night.summary()
    assert "prediction" in text
    assert "fits: True" in text


def test_weekly_timeline():
    reports = [orchestrate_night(prediction_design(), seed=s)
               for s in (0, 1)]
    text = weekly_timeline(reports)
    assert text.count("prediction") == 2
