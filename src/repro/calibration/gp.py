"""Gaussian-process emulator over basis coefficients (Appendix E, Eq. 4).

Each basis coefficient ``w_i(theta)`` gets an independent zero-mean GP prior
with the GPMSA parameterisation::

    w_i ~ GP(0, lambda_wi^-1 R(theta, theta'; rho_wi))
    R(theta, theta'; rho) = prod_k rho_k^(4 (theta_k - theta'_k)^2)

with a marginal precision lambda_wi, per-dimension correlation parameters
rho_k in (0, 1], and a nugget so "interpolation is not necessarily
enforced".  Hyperparameters are fitted by maximising the marginal likelihood
with beta/gamma-prior regularisation matching GPMSA's defaults.

Inputs are expected in the unit cube (use
:meth:`repro.calibration.lhs.ParameterSpace.to_unit`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Optimizer starts per fit; the best optimum is kept.
GP_RESTARTS: int = 3


def gpmsa_correlation(
    x1: np.ndarray, x2: np.ndarray, rho: np.ndarray
) -> np.ndarray:
    """The GPMSA correlation matrix between unit-cube point sets.

    ``R[i, j] = prod_k rho_k ** (4 * (x1[i,k] - x2[j,k])**2)`` — a squared
    exponential re-parameterised so ``rho_k`` is the correlation between
    points half a unit apart in dimension k.
    """
    x1 = np.atleast_2d(x1)
    x2 = np.atleast_2d(x2)
    log_rho = np.log(np.clip(rho, 1e-12, 1.0))
    d2 = (x1[:, None, :] - x2[None, :, :]) ** 2  # (n1, n2, d)
    return np.exp(4.0 * np.tensordot(d2, log_rho, axes=([2], [0])))


@dataclass
class GPEmulator:
    """A fitted single-output GP on unit-cube inputs.

    Attributes:
        x: ``(n, d)`` training inputs.
        y: ``(n,)`` training targets (one basis coefficient).
        rho: fitted per-dimension correlations.
        lam: fitted marginal precision lambda_w.
        nugget: fitted noise/nugget variance (relative to 1/lam).
    """

    x: np.ndarray
    y: np.ndarray
    rho: np.ndarray
    lam: float
    nugget: float

    def __post_init__(self) -> None:
        from scipy import linalg

        r = gpmsa_correlation(self.x, self.x, self.rho)
        cov = (r + self.nugget * np.eye(len(self.y))) / self.lam
        self._chol = linalg.cho_factor(cov, lower=True)
        self._alpha = linalg.cho_solve(self._chol, self.y)

    def predict(self, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at ``x_new`` rows.

        Returns:
            ``(mean, var)`` arrays of length ``len(x_new)``.
        """
        from scipy import linalg

        x_new = np.atleast_2d(x_new)
        k = gpmsa_correlation(x_new, self.x, self.rho) / self.lam
        mean = k @ self._alpha
        v = linalg.cho_solve(self._chol, k.T)
        prior_var = (1.0 + self.nugget) / self.lam
        var = np.maximum(prior_var - np.einsum("ij,ji->i", k, v), 1e-12)
        return mean, var


def _neg_log_marginal(
    params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> float:
    from scipy import linalg
    from scipy.special import expit

    d = x.shape[1]
    rho = expit(params[:d])  # logistic -> (0, 1)
    log_lam = params[d]
    log_nug = params[d + 1]
    lam = np.exp(log_lam)
    nugget = np.exp(log_nug)
    n = len(y)
    r = gpmsa_correlation(x, x, rho)
    cov = (r + nugget * np.eye(n)) / lam
    try:
        cho = linalg.cho_factor(cov, lower=True)
    except linalg.LinAlgError:
        return 1e10
    alpha = linalg.cho_solve(cho, y)
    logdet = 2.0 * np.log(np.diag(cho[0])).sum()
    nll = 0.5 * (y @ alpha + logdet + n * np.log(2 * np.pi))
    # GPMSA-style regularisation: mild pull of rho toward 1 (smoothness),
    # gamma-like shrinkage on lam, log-normal prior keeping the nugget small.
    nll += 0.2 * np.sum(1.0 - rho)
    nll += 0.01 * (log_lam ** 2)
    nll += 0.5 * ((log_nug + 4.0) / 2.0) ** 2
    return float(nll)


def fit_gp(
    x: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
) -> GPEmulator:
    """Fit a :class:`GPEmulator` by regularised maximum marginal likelihood.

    The only randomness is the multi-start initialisation, and it is
    fully determined by the caller's ``rng`` (two fits from generators
    in the same state produce identical kernels).  The best of
    :data:`GP_RESTARTS` optimizer starts is kept.

    Args:
        x: ``(n, d)`` unit-cube inputs.
        y: ``(n,)`` coefficient values.
        rng: used for multi-start initialisation.
    """
    from scipy import optimize
    from scipy.special import expit

    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y row counts differ")
    if x.shape[0] < 3:
        raise ValueError("need at least 3 training points")
    d = x.shape[1]

    best_params, best_val = None, np.inf
    for k in range(GP_RESTARTS):
        x0 = np.concatenate([
            rng.normal(1.0, 0.5, size=d),  # logistic(1) ~ rho 0.73
            [rng.normal(0.0, 0.3)],
            [rng.normal(-4.0, 0.5)],
        ])
        res = optimize.minimize(
            _neg_log_marginal, x0, args=(x, y), method="Nelder-Mead",
            options={"maxiter": 400, "xatol": 1e-4, "fatol": 1e-6})
        if res.fun < best_val:
            best_params, best_val = res.x, res.fun
    assert best_params is not None
    rho = expit(best_params[:d])
    return GPEmulator(
        x=x, y=y, rho=rho,
        lam=float(np.exp(best_params[d])),
        nugget=float(np.exp(best_params[d + 1])),
    )
