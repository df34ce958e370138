"""Bayesian model calibration for the agent-based model (Appendix E).

Implements the paper's GPMSA-style framework [23] in Python:

    y = eta(theta) + delta + epsilon                         (Eq. 2)

with the emulator eta represented over an eigenvector basis (Eq. 3) with
independent GP priors on the coefficients (Eq. 4), a kernel discrepancy
delta (Eq. 5), Gaussian observation error epsilon, gamma priors on the
precision hyperparameters, and a uniform prior on theta over its ranges.
The posterior is explored with adaptive Metropolis MCMC.

Counts are modelled on the log scale, as in the paper ("the observed time
series of logged reported case counts").

The likelihood uses the low-rank (Woodbury) form of the implied time-domain
covariance — rank ``p_eta + p_delta`` over a diagonal — so each MCMC step is
O(T r^2) instead of O(T^3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..params import DEFAULT_SEED
from .basis import DEFAULT_P_ETA, OutputBasis, fit_basis
from .discrepancy import DEFAULT_P_DELTA, discrepancy_basis
from .gp import GPEmulator, fit_gp
from .lhs import ParameterSpace
from .mcmc import MCMCResult, metropolis

#: Keep every other MCMC draw.
MCMC_THIN: int = 2
#: Emulator draws per parameter point in the Figure 16 band.
EMULATOR_DRAWS: int = 10


def log_counts(y: np.ndarray) -> np.ndarray:
    """The paper's transform of reported case counts: log(1 + y)."""
    return np.log1p(np.asarray(y, dtype=np.float64))


def _mvn_logpdf_lowrank(
    resid: np.ndarray,
    diag_var: np.ndarray,
    u: np.ndarray,
    c_diag: np.ndarray,
) -> float:
    """log N(resid; 0, diag(diag_var) + U diag(c_diag) U^T) via Woodbury."""
    t = resid.shape[0]
    a_inv = 1.0 / diag_var
    ua = u * a_inv[:, None]  # A^-1 U
    m = np.diag(1.0 / c_diag) + u.T @ ua  # C^-1 + U^T A^-1 U
    sign, logdet_m = np.linalg.slogdet(m)
    if sign <= 0:
        return -np.inf
    logdet = logdet_m + np.log(c_diag).sum() + np.log(diag_var).sum()
    w = np.linalg.solve(m, ua.T @ resid)
    quad = resid @ (a_inv * resid) - (ua.T @ resid) @ w
    return float(-0.5 * (quad + logdet + t * np.log(2 * np.pi)))


@dataclass(frozen=True)
class CalibrationResult:
    """Posterior of one GPMSA calibration.

    Attributes:
        space: the calibrated parameter space.
        prior_design: the LHS design the emulator was trained on.
        theta_samples: ``(n, d)`` posterior draws in natural units.
        lambda_obs / lambda_delta: matching precision draws.
        mcmc: the raw MCMC diagnostics.
    """

    space: ParameterSpace
    prior_design: np.ndarray
    theta_samples: np.ndarray
    lambda_obs: np.ndarray
    lambda_delta: np.ndarray
    mcmc: MCMCResult

    def select_configurations(
        self, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Resample ``n`` plausible configurations for prediction workflows.

        Case study 3: "we ran the Bayesian calibration to obtain another 100
        configurations (posterior)".
        """
        idx = rng.choice(self.theta_samples.shape[0], size=n, replace=True)
        return self.theta_samples[idx]

    def posterior_correlation(self) -> np.ndarray:
        """Parameter correlation matrix (the Figure 15 TAU/SYMP reading)."""
        return np.corrcoef(self.theta_samples.T)

    def tightening(self) -> np.ndarray:
        """Posterior sd / prior sd per parameter (< 1 means tightened)."""
        prior_sd = (self.space.upper - self.space.lower) / np.sqrt(12.0)
        return self.theta_samples.std(axis=0) / prior_sd


class GPMSACalibrator:
    """Fits the emulator and exposes the calibration posterior.

    Args:
        space: parameter space of theta.
        design: ``(n_runs, d)`` training design in natural units.
        sim_outputs: ``(n_runs, T)`` simulated series (raw counts).
        observed: ``(T,)`` ground-truth series (raw counts).
        p_delta: discrepancy basis size (paper default 7); the output
            basis keeps :data:`~repro.calibration.basis.DEFAULT_P_ETA`.
        seed: RNG seed for GP fitting and MCMC.
    """

    def __init__(
        self,
        space: ParameterSpace,
        design: np.ndarray,
        sim_outputs: np.ndarray,
        observed: np.ndarray,
        *,
        p_delta: int = DEFAULT_P_DELTA,
        seed: int = DEFAULT_SEED,
    ) -> None:
        design = np.atleast_2d(np.asarray(design, dtype=np.float64))
        sim_outputs = np.asarray(sim_outputs, dtype=np.float64)
        observed = np.asarray(observed, dtype=np.float64).ravel()
        if design.shape[0] != sim_outputs.shape[0]:
            raise ValueError("design and sim_outputs row counts differ")
        if sim_outputs.shape[1] != observed.shape[0]:
            raise ValueError("sim_outputs and observed horizons differ")

        self.space = space
        self.design = design
        self.rng = np.random.default_rng(seed)

        self.basis: OutputBasis = fit_basis(log_counts(sim_outputs),
                                            DEFAULT_P_ETA)
        self.x_unit = space.to_unit(design)
        coeffs = self.basis.project(log_counts(sim_outputs))
        self.emulators: list[GPEmulator] = [
            fit_gp(self.x_unit, coeffs[:, k], self.rng)
            for k in range(self.basis.p)
        ]
        t_len = observed.shape[0]
        self.d_basis = discrepancy_basis(t_len, p_delta=p_delta)
        self.z_obs = (log_counts(observed) - self.basis.mean) / self.basis.scale
        self.trunc_var = np.maximum(self.basis.truncation_sd ** 2, 1e-10)

    # -- posterior ---------------------------------------------------------------

    def log_posterior(self, params: np.ndarray) -> float:
        """Log posterior over ``[theta_unit..., log lam_obs, log lam_delta]``."""
        d = self.space.dim
        theta_u = params[:d]
        if ((theta_u < 0) | (theta_u > 1)).any():
            return -np.inf
        log_lam_obs, log_lam_delta = params[d], params[d + 1]
        if abs(log_lam_obs) > 20 or abs(log_lam_delta) > 20:
            return -np.inf
        lam_obs = np.exp(log_lam_obs)
        lam_delta = np.exp(log_lam_delta)

        means = np.empty(self.basis.p)
        variances = np.empty(self.basis.p)
        point = theta_u[None, :]
        for k, gp in enumerate(self.emulators):
            m, v = gp.predict(point)
            means[k], variances[k] = m[0], v[0]

        resid = self.z_obs - self.basis.phi @ means
        diag_var = self.trunc_var + 1.0 / lam_obs
        u = np.hstack([self.basis.phi, self.d_basis])
        c_diag = np.concatenate([
            np.maximum(variances, 1e-12),
            np.full(self.d_basis.shape[1], 1.0 / lam_delta),
        ])
        ll = _mvn_logpdf_lowrank(resid, diag_var, u, c_diag)

        # Gamma(a, b) priors on the precisions (GPMSA defaults: vague for
        # the observation precision, mildly informative for discrepancy).
        lp = ll
        lp += 5.0 * log_lam_obs - 5.0 * lam_obs / 100.0
        lp += 1.0 * log_lam_delta - 1.0 * lam_delta / 20.0
        return lp

    def calibrate(
        self,
        *,
        n_samples: int = 1500,
        burn_in: int = 800,
    ) -> CalibrationResult:
        """Run the MCMC and package the posterior."""
        d = self.space.dim
        theta0 = np.concatenate([np.full(d, 0.5), [np.log(50.0), np.log(5.0)]])
        result = metropolis(
            self.log_posterior,
            theta0,
            n_samples=n_samples,
            burn_in=burn_in,
            thin=MCMC_THIN,
            init_scales=np.concatenate([np.full(d, 0.08), [0.3, 0.3]]),
            rng=self.rng,
        )
        theta_nat = self.space.from_unit(result.samples[:, :d])
        return CalibrationResult(
            space=self.space,
            prior_design=self.design,
            theta_samples=theta_nat,
            lambda_obs=np.exp(result.samples[:, d]),
            lambda_delta=np.exp(result.samples[:, d + 1]),
            mcmc=result,
        )

    # -- predictive --------------------------------------------------------------

    def emulate(self, thetas: np.ndarray) -> np.ndarray:
        """Emulator *mean* curves (raw-count space) at ``thetas`` rows."""
        thetas = np.atleast_2d(thetas)
        xu = self.space.to_unit(thetas)
        w = np.column_stack([gp.predict(xu)[0] for gp in self.emulators])
        return np.expm1(self.basis.reconstruct(w))

    def emulator_band(
        self,
        thetas: np.ndarray,
    ) -> np.ndarray:
        """Emulator draws (raw-count space) for the Figure 16 band.

        For each theta row, draws :data:`EMULATOR_DRAWS` coefficient
        vectors from the GP posterior and reconstructs curves; returns
        ``(n_thetas * EMULATOR_DRAWS, T)``.
        """
        thetas = np.atleast_2d(thetas)
        xu = self.space.to_unit(thetas)
        curves = []
        for row in xu:
            point = row[None, :]
            m = np.empty(self.basis.p)
            s = np.empty(self.basis.p)
            for k, gp in enumerate(self.emulators):
                mk, vk = gp.predict(point)
                m[k], s[k] = mk[0], np.sqrt(vk[0])
            w = self.rng.normal(
                m, s, size=(EMULATOR_DRAWS, self.basis.p))
            curves.append(self.basis.reconstruct(w))
        return np.expm1(np.vstack(curves))
