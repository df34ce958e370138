"""End-to-end GPMSA calibration tests on a synthetic problem."""

import numpy as np
import pytest

from repro.calibration.gpmsa import GPMSACalibrator, log_counts
from repro.calibration.lhs import ParameterSpace, sample_design

T = 80


def simulator(theta, rng=None, noise=0.0):
    """Logistic outbreak parameterised by (rate, final-size scale)."""
    rate, size = theta
    t = np.arange(T, dtype=np.float64)
    curve = 2000.0 * size / (1.0 + np.exp(-rate * (t - 40)))
    if noise and rng is not None:
        curve = curve * rng.lognormal(0.0, noise, T)
    return curve


@pytest.fixture(scope="module")
def setup():
    space = ParameterSpace(("rate", "size"), np.array([0.05, 0.5]),
                           np.array([0.30, 2.0]))
    rng = np.random.default_rng(10)
    design = sample_design(space, 40, rng)
    outputs = np.vstack([simulator(th, rng, noise=0.04) for th in design])
    truth = np.array([0.18, 1.3])
    observed = simulator(truth, rng, noise=0.04)
    cal = GPMSACalibrator(space, design, outputs, observed, seed=11)
    posterior = cal.calibrate(n_samples=800, burn_in=600)
    return space, truth, cal, posterior


def test_log_counts_transform():
    np.testing.assert_allclose(log_counts([0.0, np.e - 1]), [0.0, 1.0])


def test_posterior_brackets_truth(setup):
    _space, truth, _cal, post = setup
    lo, hi = np.quantile(post.theta_samples, [0.025, 0.975], axis=0)
    assert (lo <= truth).all()
    assert (hi >= truth).all()


def test_posterior_tightens_rate(setup):
    _space, _truth, _cal, post = setup
    tight = post.tightening()
    assert tight[0] < 0.8  # rate is strongly identified


def test_posterior_within_prior_box(setup):
    space, _truth, _cal, post = setup
    assert space.contains(post.theta_samples).all()


def test_select_configurations(setup):
    _space, _truth, _cal, post = setup
    rng = np.random.default_rng(1)
    configs = post.select_configurations(25, rng)
    assert configs.shape == (25, 2)


def test_emulate_matches_simulator(setup):
    _space, truth, cal, _post = setup
    em = cal.emulate(truth[None, :])[0]
    sim = simulator(truth)
    rel = np.abs(em[-1] - sim[-1]) / sim[-1]
    assert rel < 0.25


def test_emulator_band_brackets_observation(setup):
    """The Figure 16 criterion: ground truth falls inside the emulator's
    95% band at plausible parameters."""
    _space, _truth, cal, post = setup
    rng = np.random.default_rng(2)
    thetas = post.select_configurations(10, rng)
    band = cal.emulator_band(thetas)
    lo, hi = np.quantile(band, [0.025, 0.975], axis=0)
    observed = np.expm1(cal.z_obs * cal.basis.scale + cal.basis.mean)
    inside = ((observed >= lo) & (observed <= hi)).mean()
    assert inside > 0.6


def test_validation_errors():
    space = ParameterSpace(("a",), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="row counts"):
        GPMSACalibrator(space, np.ones((3, 1)), np.ones((4, 10)),
                        np.ones(10))
    with pytest.raises(ValueError, match="horizons"):
        GPMSACalibrator(space, np.ones((4, 1)), np.ones((4, 10)),
                        np.ones(9))


def test_log_posterior_off_support(setup):
    space, _truth, cal, _post = setup
    bad = np.array([2.0, 0.5, 0.0, 0.0])  # theta_unit out of cube
    assert cal.log_posterior(bad) == -np.inf


def test_mcmc_diagnostics(setup):
    _space, _truth, _cal, post = setup
    assert 0.05 < post.mcmc.accept_rate < 0.9
    assert post.lambda_obs.min() > 0
    assert post.lambda_delta.min() > 0
