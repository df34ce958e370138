"""Iterative proportional fitting (IPF) for population synthesis.

The base population model of the paper (Appendix C) uses IPF [4], [13] to fit
a joint distribution of person attributes to known census marginals, then
samples individuals from the fitted joint.  This module implements the
classical Deming-Stephan algorithm for dense n-dimensional contingency
tables, fully vectorised with numpy broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class IPFError(ValueError):
    """Raised when the IPF inputs are inconsistent or fitting fails."""


#: Convergence: the largest absolute deviation of any fitted marginal
#: entry from its target, and the most full axis sweeps tried.
IPF_TOL: float = 1e-8
IPF_MAX_SWEEPS: int = 200


@dataclass(frozen=True, slots=True)
class IPFResult:
    """Outcome of an IPF fit.

    Attributes:
        table: fitted joint table, same shape as the seed.
        iterations: number of full sweeps performed.
        max_error: worst absolute marginal violation at termination.
        converged: whether ``max_error <=`` :data:`IPF_TOL` was reached.
    """

    table: np.ndarray
    iterations: int
    max_error: float
    converged: bool


def _marginal(table: np.ndarray, axis: int) -> np.ndarray:
    """Marginal of ``table`` along ``axis`` (sum over all other axes)."""
    axes = tuple(a for a in range(table.ndim) if a != axis)
    return table.sum(axis=axes)


def ipf_fit(
    seed: np.ndarray,
    marginals: list[np.ndarray],
) -> IPFResult:
    """Fit ``seed`` to one target marginal per axis.

    Args:
        seed: non-negative n-dimensional array of prior cell weights.  Cells
            that are zero in the seed stay zero (structural zeros).
        marginals: one 1-D target vector per axis of ``seed``; all targets
            must have equal totals (up to floating error).

    Returns:
        An :class:`IPFResult` whose table matches every marginal to
        :data:`IPF_TOL` when ``converged`` is true.

    Raises:
        IPFError: on shape mismatch, negative inputs, inconsistent totals, or
            a target that is unreachable because of structural zeros.
    """
    seed = np.asarray(seed, dtype=np.float64)
    if seed.ndim != len(marginals):
        raise IPFError(
            f"seed has {seed.ndim} axes but {len(marginals)} marginals given"
        )
    if (seed < 0).any():
        raise IPFError("seed must be non-negative")

    targets = [np.asarray(m, dtype=np.float64) for m in marginals]
    for axis, target in enumerate(targets):
        if target.ndim != 1 or target.shape[0] != seed.shape[axis]:
            raise IPFError(
                f"marginal {axis} has shape {target.shape}, "
                f"expected ({seed.shape[axis]},)"
            )
        if (target < 0).any():
            raise IPFError(f"marginal {axis} must be non-negative")

    totals = [t.sum() for t in targets]
    if totals and not np.allclose(totals, totals[0], rtol=1e-6):
        raise IPFError(f"marginal totals disagree: {totals}")

    table = seed.copy()
    n_iter = 0
    max_err = np.inf
    for n_iter in range(1, IPF_MAX_SWEEPS + 1):
        for axis, target in enumerate(targets):
            current = _marginal(table, axis)
            # Cells whose whole slice is zero can never reach a positive
            # target: that is a structural inconsistency.
            dead = (current == 0) & (target > 0)
            if dead.any():
                raise IPFError(
                    f"axis {axis} level(s) {np.flatnonzero(dead).tolist()} "
                    "are structurally zero in the seed but have a positive "
                    "target"
                )
            with np.errstate(divide="ignore", invalid="ignore"):
                factor = np.where(current > 0, target / current, 0.0)
            shape = [1] * table.ndim
            shape[axis] = table.shape[axis]
            table *= factor.reshape(shape)
        max_err = max(
            float(np.abs(_marginal(table, axis) - target).max())
            for axis, target in enumerate(targets)
        )
        if max_err <= IPF_TOL:
            return IPFResult(table, n_iter, max_err, True)
    return IPFResult(table, n_iter, max_err, False)


def sample_joint(
    table: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` index tuples from the joint distribution in ``table``.

    Returns an ``(n, table.ndim)`` integer array; each row is a cell index,
    drawn proportionally to the fitted cell weights.  This is the sampling
    step that turns the fitted contingency table into synthetic persons.
    """
    flat = table.ravel()
    total = flat.sum()
    if total <= 0:
        raise IPFError("cannot sample from an all-zero table")
    idx = rng.choice(flat.size, size=n, p=flat / total)
    return np.column_stack(np.unravel_index(idx, table.shape))
