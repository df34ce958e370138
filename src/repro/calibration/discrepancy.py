"""Systematic-discrepancy basis (Appendix E, Eq. 5).

The calibration model adds a discrepancy term delta between the emulator and
reality, represented over time with ``p_delta = 7`` one-dimensional normal
kernels with a standard deviation of 15 days, spaced 10 days apart::

    delta = sum_k d_k v_k,    v_k(t) = exp(-(t - c_k)^2 / (2 * 15^2))

with independent zero-mean normal priors (precision lambda_delta) on the
weights d_k.
"""

from __future__ import annotations

import numpy as np

#: Paper values.
DEFAULT_P_DELTA: int = 7
KERNEL_SD_DAYS: float = 15.0
KERNEL_SPACING_DAYS: float = 10.0


def discrepancy_basis(
    t_len: int,
    *,
    p_delta: int = DEFAULT_P_DELTA,
) -> np.ndarray:
    """Build the ``(t_len, p_delta)`` kernel matrix D.

    Kernels are centred so the block of ``p_delta`` kernels spans the middle
    of the series when the series is longer than the kernel block, and are
    spread evenly otherwise.

    Args:
        t_len: number of time points.
        p_delta: number of kernels, :data:`KERNEL_SPACING_DAYS` apart,
            each :data:`KERNEL_SD_DAYS` wide.
    """
    if t_len < 1 or p_delta < 1:
        raise ValueError("t_len and p_delta must be positive")
    spacing, sd = KERNEL_SPACING_DAYS, KERNEL_SD_DAYS
    block = (p_delta - 1) * spacing
    if block <= t_len - 1:
        start = (t_len - 1 - block) / 2.0
        centers = start + spacing * np.arange(p_delta)
    else:
        centers = np.linspace(0.0, t_len - 1, p_delta)
    t = np.arange(t_len, dtype=np.float64)
    d = np.exp(-((t[:, None] - centers[None, :]) ** 2) / (2.0 * sd ** 2))
    return d
