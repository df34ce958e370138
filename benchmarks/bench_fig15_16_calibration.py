"""Figures 15 and 16 / Case study 3: calibrating the agent-based model.

Figure 15 (prior vs posterior scatter): after calibration, transmissibility
(TAU) and symptomatic fraction (SYMP) are negatively correlated and both
tightened; SH compliance concentrates toward lower values; VHI compliance
is comparatively unchanged.

Figure 16 (calibration visualisation): the ground truth falls inside the
95% uncertainty band of the GP emulator at posterior configurations.

Runs the full calibration workflow (LHS prior -> EpiHiper ensemble -> GP
emulator -> MCMC posterior) for Virginia at reproduction scale.
"""

import numpy as np
import pytest

from repro.core.calibration_wf import run_calibration_workflow


@pytest.fixture(scope="module")
def calibration():
    return run_calibration_workflow(
        "VA", n_cells=40, n_days=80, scale=1e-3, seed=1,
        mcmc_samples=1000, mcmc_burn_in=800)


def test_fig15_prior_vs_posterior(benchmark, calibration, save_artifact):
    cal = benchmark.pedantic(lambda: calibration, rounds=1, iterations=1)
    prior = cal.prior_design
    post = cal.posterior.theta_samples
    tight = cal.posterior.tightening()
    corr = cal.posterior.posterior_correlation()

    lines = [f"{'parameter':<16}{'prior sd':>10}{'post sd':>10}"
             f"{'tightening':>11}"]
    for k, name in enumerate(cal.space.names):
        lines.append(f"{name:<16}{prior[:, k].std():>10.3f}"
                     f"{post[:, k].std():>10.3f}{tight[k]:>11.2f}")
    lines.append(f"corr(TAU, SYMP) = {corr[0, 1]:+.3f}")
    save_artifact("fig15_prior_posterior", "\n".join(lines))

    names = list(cal.space.names)
    i_tau = names.index("TAU")
    i_symp = names.index("SYMP")
    # TAU is tightened by the data (the paper's strongest finding).
    assert tight[i_tau] < 0.7
    # TAU and SYMP are negatively correlated in the posterior: a higher
    # symptomatic fraction needs lower transmissibility to fit the counts.
    assert corr[i_tau, i_symp] < -0.1
    # Posterior stays inside the prior box.
    assert cal.space.contains(post).all()


def test_fig16_emulator_band(benchmark, calibration, save_artifact):
    cal = calibration

    def band_coverage():
        rng = np.random.default_rng(0)
        thetas = cal.posterior.select_configurations(10, rng)
        band = cal.calibrator.emulator_band(thetas)
        lo, hi = np.quantile(band, [0.025, 0.975], axis=0)
        return lo, hi

    lo, hi = benchmark.pedantic(band_coverage, rounds=1, iterations=1)
    inside = ((cal.observed >= lo) & (cal.observed <= hi)).mean()
    lines = [f"days inside emulator 95% band: {inside:.0%}"]
    for d in range(0, cal.observed.shape[0], 10):
        lines.append(f"  day {d:>3}: obs {cal.observed[d]:>8.1f}  "
                     f"band [{lo[d]:>8.1f}, {hi[d]:>8.1f}]")
    save_artifact("fig16_emulator_band", "\n".join(lines))

    # "The result is good if the ground truth falls between the green
    # curves" — require most of the window to be bracketed.
    assert inside > 0.6


def test_fig15_emulator_quality(benchmark, calibration):
    """The GP emulator reproduces held-in training curves closely."""
    cal = calibration

    def loo():
        em = cal.calibrator.emulate(cal.prior_design)
        truth = cal.sim_series
        denom = np.maximum(truth.max(axis=1), 1.0)
        return np.abs(em[:, -1] - truth[:, -1]) / np.maximum(
            truth[:, -1], 10.0)

    rel = benchmark.pedantic(loo, rounds=1, iterations=1)
    assert np.median(rel) < 0.6
