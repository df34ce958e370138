"""Quantile-based emulation tests (ref [18])."""

import numpy as np
import pytest

from repro.calibration.lhs import ParameterSpace, sample_design
from repro.calibration.quantile import (
    fit_quantile_emulator,
    replicate_quantiles,
)

T = 50
R = 12


def stochastic_sim(theta, rng):
    """Logistic curve with multiplicative noise whose spread grows with
    the rate parameter."""
    rate = theta[0]
    t = np.arange(T, dtype=np.float64)
    base = 1000.0 / (1.0 + np.exp(-rate * (t - 25)))
    noise_sd = 0.05 + 0.4 * rate
    return base * rng.lognormal(0.0, noise_sd, T)


@pytest.fixture(scope="module")
def fitted():
    space = ParameterSpace(("rate",), np.array([0.05]), np.array([0.5]))
    rng = np.random.default_rng(60)
    design = sample_design(space, 25, rng)
    outputs = np.stack([
        np.stack([stochastic_sim(th, rng) for _ in range(R)])
        for th in design
    ])
    em = fit_quantile_emulator(space, design, outputs, seed=61)
    return space, design, outputs, em


def test_replicate_quantiles_shape():
    arr = np.random.default_rng(0).random((5, 8, 20))
    q = replicate_quantiles(arr, (0.25, 0.5, 0.75))
    assert q.shape == (3, 5, 20)
    assert (q[0] <= q[1]).all() and (q[1] <= q[2]).all()


def test_replicate_quantiles_validation():
    with pytest.raises(ValueError, match="n_replicates"):
        replicate_quantiles(np.ones((5, 20)))
    with pytest.raises(ValueError, match=">= 2"):
        replicate_quantiles(np.ones((5, 1, 20)))


def test_median_prediction_accurate(fitted):
    space, _design, _outputs, em = fitted
    theta = np.array([[0.2]])
    rng = np.random.default_rng(62)
    truth = np.median(
        [stochastic_sim(theta[0], rng) for _ in range(200)], axis=0)
    pred = em.median(theta)[0]
    rel = abs(pred[-1] - truth[-1]) / truth[-1]
    assert rel < 0.25


def test_quantile_ordering_roughly_preserved(fitted):
    _space, design, _outputs, em = fitted
    thetas = design[:5]
    q25 = em.predict_quantile(0.25, thetas)
    q75 = em.predict_quantile(0.75, thetas)
    # Late-curve values: upper quantile above lower for most points.
    assert (q75[:, -1] > q25[:, -1]).all()


def test_spread_grows_with_stochasticity(fitted):
    """The noise sd grows with the rate parameter; the emulated spread
    must reflect it."""
    _space, _design, _outputs, em = fitted

    def spread(theta):
        lo = em.predict_quantile(min(em.quantiles), np.array([[theta]]))
        hi = em.predict_quantile(max(em.quantiles), np.array([[theta]]))
        return (hi - lo)[0, -1]

    assert spread(0.45) > spread(0.08)


def test_unknown_level_rejected(fitted):
    _space, _design, _outputs, em = fitted
    with pytest.raises(KeyError):
        em.predict_quantile(0.9, np.array([[0.2]]))


def test_design_size_mismatch():
    space = ParameterSpace(("a",), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="design size"):
        fit_quantile_emulator(space, np.ones((3, 1)),
                              np.ones((4, 5, 10)))
