"""Metropolis MCMC tests."""

import numpy as np
import pytest

from repro.calibration.mcmc import metropolis


def test_samples_standard_normal():
    rng = np.random.default_rng(0)

    def log_post(theta):
        return float(-0.5 * (theta ** 2).sum())

    res = metropolis(log_post, np.zeros(2), n_samples=4000, burn_in=1000,
                     init_scales=1.0, rng=rng)
    assert res.samples.shape == (4000, 2)
    assert np.abs(res.samples.mean(axis=0)).max() < 0.15
    assert np.abs(res.samples.std(axis=0) - 1.0).max() < 0.15


def test_respects_support():
    rng = np.random.default_rng(1)

    def log_post(theta):
        if theta[0] < 0 or theta[0] > 1:
            return -np.inf
        return 0.0

    res = metropolis(log_post, np.array([0.5]), n_samples=2000,
                     burn_in=300, rng=rng)
    assert res.samples.min() >= 0
    assert res.samples.max() <= 1


def test_rejects_bad_start():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="non-finite"):
        metropolis(lambda t: -np.inf, np.zeros(1), rng=rng)


def test_acceptance_rate_reasonable_after_adaptation():
    rng = np.random.default_rng(3)

    def log_post(theta):
        return float(-0.5 * (theta ** 2).sum() / 0.01)  # narrow target

    res = metropolis(log_post, np.zeros(3), n_samples=2000, burn_in=3000,
                     init_scales=5.0, rng=rng)  # badly scaled start
    assert 0.1 < res.accept_rate < 0.7


def test_credible_interval_and_ess():
    rng = np.random.default_rng(4)
    res = metropolis(lambda t: float(-0.5 * t @ t), np.zeros(1),
                     n_samples=3000, burn_in=500, init_scales=1.0, rng=rng)
    lo, hi = res.credible_interval(0.95)
    assert lo[0] < -1.5 and hi[0] > 1.5
    assert res.effective_sample_size()[0] > 50


def test_thinning():
    rng = np.random.default_rng(5)
    res = metropolis(lambda t: float(-0.5 * t @ t), np.zeros(1),
                     n_samples=100, burn_in=100, thin=5, rng=rng)
    assert res.samples.shape[0] == 100


def test_bimodal_target_visits_both_modes():
    rng = np.random.default_rng(6)

    def log_post(theta):
        x = theta[0]
        return float(np.logaddexp(-0.5 * (x - 2) ** 2,
                                  -0.5 * (x + 2) ** 2))

    res = metropolis(log_post, np.array([0.0]), n_samples=6000,
                     burn_in=1000, init_scales=2.0, rng=rng)
    x = res.samples[:, 0]
    assert (x > 1).mean() > 0.15
    assert (x < -1).mean() > 0.15
