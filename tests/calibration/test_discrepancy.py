"""Discrepancy-kernel (Eq. 5) tests."""

import numpy as np
import pytest

from repro.calibration.discrepancy import (
    DEFAULT_P_DELTA,
    KERNEL_SD_DAYS,
    KERNEL_SPACING_DAYS,
    discrepancy_basis,
)


def test_paper_constants():
    assert DEFAULT_P_DELTA == 7
    assert KERNEL_SD_DAYS == 15.0
    assert KERNEL_SPACING_DAYS == 10.0


def test_shape():
    d = discrepancy_basis(120)
    assert d.shape == (120, 7)


def test_kernels_peak_at_one():
    d = discrepancy_basis(200)
    np.testing.assert_allclose(d.max(axis=0), 1.0, atol=1e-3)


def test_kernel_spacing():
    d = discrepancy_basis(200)
    peaks = d.argmax(axis=0)
    gaps = np.diff(peaks)
    np.testing.assert_allclose(gaps, 10, atol=1)


def test_kernels_centered_in_window():
    d = discrepancy_basis(200, p_delta=7)
    peaks = d.argmax(axis=0)
    block_center = (peaks[0] + peaks[-1]) / 2
    assert abs(block_center - 99.5) < 2


def test_short_series_spreads_kernels():
    d = discrepancy_basis(30, p_delta=7)
    peaks = d.argmax(axis=0)
    assert peaks[0] <= 2
    assert peaks[-1] >= 27


def test_gaussian_width():
    d = discrepancy_basis(300, p_delta=1)
    col = d[:, 0]
    center = col.argmax()
    # Value one sd away from the centre is exp(-0.5).
    # Half-a-day discretisation of the kernel centre shifts this slightly.
    assert col[center + 15] == pytest.approx(np.exp(-0.5), abs=0.03)


def test_basis_validation():
    with pytest.raises(ValueError):
        discrepancy_basis(0)
    with pytest.raises(ValueError):
        discrepancy_basis(10, p_delta=0)
