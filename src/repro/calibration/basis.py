"""Eigenvector output basis for multivariate emulation (Appendix E, Eq. 3).

The simulator output is a full time series; GPMSA handles the multivariate
output with a basis representation::

    eta(theta) = phi_0 + sum_k phi_k w_k(theta) + w_0

with ``p_eta = 5`` eigenvector basis functions phi_k (principal components
of the standardized ensemble of training runs) and independent GP priors on
the coefficients w_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The paper's basis size: "We have used p_eta = 5".
DEFAULT_P_ETA: int = 5


@dataclass(frozen=True)
class OutputBasis:
    """A fitted eigenvector basis over simulator output space.

    Attributes:
        mean: ``(T,)`` phi_0, the ensemble mean.
        scale: scalar standardisation factor (ensemble sd).
        phi: ``(T, p)`` basis vectors, scaled eigenvectors.
        explained: fraction of ensemble variance captured per component.
        truncation_sd: per-time-point sd of the residual w_0 term.
    """

    mean: np.ndarray
    scale: float
    phi: np.ndarray
    explained: np.ndarray
    truncation_sd: np.ndarray

    @property
    def p(self) -> int:
        """Number of basis functions."""
        return int(self.phi.shape[1])

    def project(self, y: np.ndarray) -> np.ndarray:
        """Coefficients w of output rows ``y`` (least squares onto phi)."""
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        centered = (y - self.mean) / self.scale
        w, *_ = np.linalg.lstsq(self.phi, centered.T, rcond=None)
        return w.T  # (n, p)

    def reconstruct(self, w: np.ndarray) -> np.ndarray:
        """Output rows from coefficient rows ``w``."""
        w = np.atleast_2d(np.asarray(w, dtype=np.float64))
        return (w @ self.phi.T) * self.scale + self.mean

    def reconstruction_error(self, y: np.ndarray) -> float:
        """RMS error of project-then-reconstruct on rows ``y``."""
        y = np.atleast_2d(y)
        back = self.reconstruct(self.project(y))
        return float(np.sqrt(np.mean((back - y) ** 2)))


def fit_basis(
    outputs: np.ndarray, p_eta: int = DEFAULT_P_ETA
) -> OutputBasis:
    """Fit the eigenvector basis to an ``(n_runs, T)`` training ensemble.

    Follows the GPMSA convention: standardise by the ensemble mean and a
    single scalar sd, take the SVD, and scale each eigenvector so the
    associated coefficients have roughly unit variance (which lets the GP
    priors on w_k share a common scale).

    Args:
        outputs: simulator training runs, one row per run.
        p_eta: number of components retained (capped at matrix rank).
    """
    y = np.asarray(outputs, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] < 2:
        raise ValueError("need an (n_runs >= 2, T) output matrix")
    n = y.shape[0]
    mean = y.mean(axis=0)
    sd = float(y.std())
    scale = sd if sd > 0 else 1.0
    z = (y - mean) / scale

    u, s, vt = np.linalg.svd(z, full_matrices=False)
    p = int(min(p_eta, (s > 1e-12).sum(), *z.shape))
    if p < 1:
        raise ValueError("ensemble has no variance to build a basis from")
    # GPMSA scaling: phi_k = v_k * s_k / sqrt(n), so w_k ~ unit variance.
    phi = (vt[:p].T * s[:p]) / np.sqrt(n)
    var = s ** 2
    explained = var[:p] / var.sum()

    w = u[:, :p] * np.sqrt(n)
    resid = z - (w @ phi.T)
    truncation_sd = resid.std(axis=0)

    return OutputBasis(
        mean=mean,
        scale=scale,
        phi=phi,
        explained=explained,
        truncation_sd=truncation_sd,
    )
