"""GP emulator (Eq. 4) tests."""

import numpy as np
import pytest

from repro.calibration.gp import GPEmulator, fit_gp, gpmsa_correlation
from repro.calibration.lhs import latin_hypercube


def test_correlation_identity_diagonal():
    x = np.random.default_rng(0).random((10, 3))
    r = gpmsa_correlation(x, x, np.array([0.5, 0.5, 0.5]))
    np.testing.assert_allclose(np.diag(r), 1.0)
    assert (r <= 1.0 + 1e-12).all()
    assert (r > 0).all()


def test_correlation_half_unit_interpretation():
    """rho_k is the correlation at distance 0.5 in dimension k."""
    x1 = np.array([[0.0]])
    x2 = np.array([[0.5]])
    r = gpmsa_correlation(x1, x2, np.array([0.3]))
    assert r[0, 0] == pytest.approx(0.3)


def test_correlation_decreases_with_distance():
    rho = np.array([0.5])
    points = np.array([[0.0], [0.1], [0.3], [0.9]])
    r = gpmsa_correlation(np.array([[0.0]]), points, rho)[0]
    assert (np.diff(r) < 0).all()


def test_fit_recovers_smooth_function():
    rng = np.random.default_rng(1)
    x = latin_hypercube(40, 2, rng)
    y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2
    gp = fit_gp(x, y, rng)
    x_test = latin_hypercube(20, 2, np.random.default_rng(2))
    y_test = np.sin(3 * x_test[:, 0]) + x_test[:, 1] ** 2
    mean, var = gp.predict(x_test)
    rmse = np.sqrt(np.mean((mean - y_test) ** 2))
    assert rmse < 0.15 * y.std()
    assert (var > 0).all()


def test_training_points_nearly_interpolated():
    rng = np.random.default_rng(3)
    x = latin_hypercube(25, 1, rng)
    y = np.cos(4 * x[:, 0])
    gp = fit_gp(x, y, rng)
    mean, _ = gp.predict(x)
    assert np.abs(mean - y).max() < 0.1


def test_variance_grows_away_from_data():
    rng = np.random.default_rng(4)
    x = latin_hypercube(15, 1, rng) * 0.5  # data only in [0, 0.5]
    y = x[:, 0]
    gp = fit_gp(x, y, rng)
    _m_near, v_near = gp.predict(np.array([[0.25]]))
    _m_far, v_far = gp.predict(np.array([[0.99]]))
    assert v_far[0] > v_near[0]


def test_fit_gp_seed_is_reproducible():
    """Two fits from generators in the same state produce identical
    fitted kernels."""
    x = latin_hypercube(20, 2, np.random.default_rng(0))
    y = np.sin(3 * x[:, 0]) + x[:, 1]
    a = fit_gp(x, y, np.random.default_rng(7))
    b = fit_gp(x, y, np.random.default_rng(7))
    np.testing.assert_array_equal(a.rho, b.rho)
    assert a.lam == b.lam
    assert a.nugget == b.nugget


def test_variance_near_zero_at_training_points():
    """Predictive variance collapses on the training set (sanity)."""
    rng = np.random.default_rng(6)
    x = latin_hypercube(20, 1, rng)
    y = np.sin(2 * x[:, 0])
    gp = fit_gp(x, y, rng)
    _, v_train = gp.predict(x)
    prior_var = (1.0 + gp.nugget) / gp.lam
    assert v_train.max() < 0.25 * prior_var
    _, v_far = gp.predict(np.array([[3.0]]))  # far outside the cube
    assert v_far[0] > 10 * v_train.max()


def test_fit_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least 3"):
        fit_gp(np.array([[0.1], [0.2]]), np.array([1.0, 2.0]), rng)
    with pytest.raises(ValueError, match="row counts"):
        fit_gp(np.ones((4, 1)), np.ones(3), rng)


def test_emulator_direct_construction():
    x = np.linspace(0, 1, 10)[:, None]
    y = x[:, 0] * 2
    gp = GPEmulator(x=x, y=y, rho=np.array([0.8]), lam=1.0, nugget=1e-4)
    mean, var = gp.predict(np.array([[0.55]]))
    assert abs(mean[0] - 1.1) < 0.1
    assert var[0] > 0
