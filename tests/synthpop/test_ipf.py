"""Unit and property tests for iterative proportional fitting."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthpop import ipf
from repro.synthpop.ipf import IPFError, ipf_fit, sample_joint


def test_fits_simple_2d_table():
    seed = np.ones((3, 2))
    fit = ipf_fit(seed, [np.array([10.0, 20.0, 30.0]),
                         np.array([24.0, 36.0])])
    assert fit.converged
    np.testing.assert_allclose(fit.table.sum(axis=1), [10, 20, 30],
                               atol=1e-6)
    np.testing.assert_allclose(fit.table.sum(axis=0), [24, 36], atol=1e-6)


def test_preserves_structural_zeros():
    seed = np.array([[1.0, 0.0], [1.0, 1.0]])
    fit = ipf_fit(seed, [np.array([5.0, 5.0]), np.array([6.0, 4.0])])
    assert fit.table[0, 1] == 0.0
    assert fit.converged


def test_3d_table_converges():
    rng = np.random.default_rng(0)
    seed = rng.random((4, 3, 2)) + 0.1
    targets = [np.array([10., 20., 30., 40.]),
               np.array([30., 30., 40.]),
               np.array([55., 45.])]
    fit = ipf_fit(seed, targets)
    assert fit.converged
    for axis, t in enumerate(targets):
        axes = tuple(a for a in range(3) if a != axis)
        np.testing.assert_allclose(fit.table.sum(axis=axes), t, atol=1e-6)


def test_rejects_mismatched_marginal_count():
    with pytest.raises(IPFError, match="axes"):
        ipf_fit(np.ones((2, 2)), [np.array([1.0, 1.0])])


def test_rejects_wrong_marginal_length():
    with pytest.raises(IPFError, match="shape"):
        ipf_fit(np.ones((2, 2)), [np.array([1.0, 1.0, 1.0]),
                                  np.array([1.0, 1.0])])


def test_rejects_negative_seed():
    with pytest.raises(IPFError, match="non-negative"):
        ipf_fit(np.array([[1.0, -1.0]]), [np.array([1.0]),
                                          np.array([0.5, 0.5])])


def test_rejects_inconsistent_totals():
    with pytest.raises(IPFError, match="totals"):
        ipf_fit(np.ones((2, 2)), [np.array([1.0, 1.0]),
                                  np.array([5.0, 5.0])])


def test_rejects_unreachable_target():
    seed = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(IPFError, match="structurally zero"):
        ipf_fit(seed, [np.array([5.0, 5.0]), np.array([5.0, 5.0])])


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(2, 6),
    cols=st.integers(2, 6),
    data=st.data(),
)
def test_property_marginals_always_match(rows, cols, data):
    """For any positive seed and consistent marginals, IPF converges and
    the fitted table reproduces every marginal."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    seed = rng.random((rows, cols)) + 0.05
    row_t = rng.random(rows) + 0.1
    col_t = rng.random(cols) + 0.1
    col_t *= row_t.sum() / col_t.sum()
    with mock.patch.object(ipf, "IPF_MAX_SWEEPS", 500):
        fit = ipf_fit(seed, [row_t, col_t])
    assert fit.converged
    np.testing.assert_allclose(fit.table.sum(axis=1), row_t, atol=1e-6)
    np.testing.assert_allclose(fit.table.sum(axis=0), col_t, atol=1e-6)
    assert (fit.table >= 0).all()


def test_sample_joint_distribution():
    table = np.array([[8.0, 0.0], [0.0, 2.0]])
    rng = np.random.default_rng(1)
    draws = sample_joint(table, 5000, rng)
    assert draws.shape == (5000, 2)
    # Only the two diagonal cells may be drawn.
    assert set(map(tuple, draws.tolist())) <= {(0, 0), (1, 1)}
    frac = (draws[:, 0] == 0).mean()
    assert 0.75 < frac < 0.85


def test_sample_joint_rejects_zero_table():
    with pytest.raises(IPFError):
        sample_joint(np.zeros((2, 2)), 10, np.random.default_rng(0))
