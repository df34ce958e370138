"""Figures 4 and 5: the calibration and prediction workflow instantiations.

Figure 4: a calibration design of 300 cells x 51 states x 1 replicate =
15,300 instances; county incidence in (~3000 counties x 200+ days); raw
output ~5TB; aggregates ~1.5e9 entries / ~4GB.

Figure 5: a prediction design of (3 reopening x 4 tracing) x 51 x 15 =
9,180 instances; transmission-tree output ~1TB; summaries ~2.5GB.

The bench validates the designs' accounting at paper scale and executes a
miniature calibration -> prediction cycle end-to-end.
"""

import numpy as np
import pytest

from repro.core.accounting import account_workflow
from repro.core.calibration_wf import run_calibration_workflow
from repro.core.designs import calibration_design, prediction_design
from repro.core.prediction_wf import run_prediction_workflow
from repro.params import GB, TB
from repro.surveillance import generate_national_truth
from repro.synthpop.regions import total_counties


def test_fig4_calibration_inputs(benchmark, save_artifact):
    """[1] Incidence data: about 3000 counties x 200+ days of entries."""
    truth = benchmark.pedantic(
        lambda: generate_national_truth(seed=0),
        rounds=1, iterations=1)
    counties = sum(t.n_counties for t in truth.values())
    entries = sum(t.n_counties * t.n_days for t in truth.values())
    save_artifact("fig4_incidence_inputs",
                  f"counties: {counties}\ndays: 210\nentries: {entries:,}")
    assert counties == total_counties() == 3140
    assert entries > 3000 * 200


def test_fig4_design_accounting(benchmark, save_artifact):
    acct = benchmark(
        lambda: account_workflow(calibration_design(seed=0)))
    save_artifact("fig4_design_accounting", acct.table_row())
    assert acct.n_simulations == 15300  # 300 x 51 x 1
    assert 3.5 * TB < acct.raw_bytes < 6.5 * TB       # "about 5TB"
    assert 1.2e9 < acct.summary_entries < 1.8e9       # "about 1.5 billion"
    assert 3 * GB < acct.summary_bytes < 5.5 * GB     # "4GB"


def test_fig5_design_accounting(benchmark, save_artifact):
    acct = benchmark(lambda: account_workflow(prediction_design()))
    save_artifact("fig5_design_accounting", acct.table_row())
    assert acct.n_simulations == 9180  # (3 x 4) x 51 x 15
    assert 0.5 * TB < acct.raw_bytes < 2 * TB         # "about 1TB"
    assert 1.5 * GB < acct.summary_bytes < 3.5 * GB   # "2.5GB"


def mini_cycle():
    cal = run_calibration_workflow(
        "VT", n_cells=20, n_days=70, scale=1e-3, seed=31,
        mcmc_samples=400, mcmc_burn_in=400)
    pred = run_prediction_workflow(
        cal, n_configurations=4, replicates=2, horizon=28,
        reopen_levels=(0.25, 0.75), tracing_compliances=(0.4,), seed=32)
    return cal, pred


def test_fig4_5_cycle_executes(benchmark, save_artifact):
    cal, pred = benchmark.pedantic(mini_cycle, rounds=1, iterations=1)
    lines = [
        f"prior cells: {cal.prior_design.shape[0]}",
        f"posterior draws: {cal.posterior.theta_samples.shape[0]}",
        f"prediction members: {pred.n_members}",
        f"what-if labels: {sorted(set(pred.what_if))}",
    ]
    save_artifact("fig4_5_cycle", "\n".join(lines))

    # Calibration hands plausible configurations to prediction (Fig. 4->5).
    assert cal.posterior.theta_samples.shape[0] > 100
    assert pred.n_members == 4 * 2 * 2  # configs x what-ifs x replicates
    assert len(set(pred.what_if)) == 2  # two reopening levels
    # Prediction bands are well-formed over history + horizon.
    assert pred.confirmed_band.n_days == cal.observed.shape[0] + 28
    assert (pred.confirmed_band.upper >= pred.confirmed_band.lower).all()
