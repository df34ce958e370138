"""Ensemble-band tests (Figure 17 mechanics)."""

import numpy as np
import pytest

from repro.analytics.ensembles import (
    ensemble_band,
    pool_cells,
)


def test_band_ordering():
    rng = np.random.default_rng(0)
    series = rng.normal(100, 10, size=(200, 50))
    band = ensemble_band(series)
    assert (band.lower <= band.median).all()
    assert (band.median <= band.upper).all()
    assert band.level == 0.95


def test_band_covers_generating_process():
    rng = np.random.default_rng(1)
    series = rng.normal(0, 1, size=(500, 30))
    band = ensemble_band(series)
    observed = rng.normal(0, 1, size=30)
    cov = band.covers(observed).mean()
    assert cov > 0.6  # well above chance for a matched process


def test_band_narrow_for_identical_members():
    series = np.tile(np.arange(10.0), (5, 1))
    band = ensemble_band(series)
    np.testing.assert_array_equal(band.lower, band.upper)
    np.testing.assert_array_equal(band.median, np.arange(10.0))


def test_band_validation():
    with pytest.raises(ValueError):
        ensemble_band(np.empty((0, 5)))


def test_coverage_length_mismatch():
    band = ensemble_band(np.ones((3, 5)))
    with pytest.raises(ValueError):
        band.covers(np.ones(6))


def test_pool_cells_stacks():
    a = np.ones((3, 10))
    b = np.zeros((2, 10))
    pooled = pool_cells([a, b])
    assert pooled.shape == (5, 10)


def test_pool_cells_accepts_1d():
    pooled = pool_cells([np.ones(10), np.zeros((2, 10))])
    assert pooled.shape == (3, 10)


def test_pool_cells_horizon_mismatch():
    with pytest.raises(ValueError, match="horizon"):
        pool_cells([np.ones((2, 10)), np.ones((2, 9))])
