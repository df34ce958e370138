"""Adaptive Metropolis MCMC (Appendix E: "explored via MCMC").

A generic random-walk Metropolis sampler with component-wise adaptation of
the proposal scales during burn-in, used both by the GPMSA-style agent-based
calibration and the direct metapopulation calibration ("We use metropolis
update in the Markov chain").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Target acceptance rate for the adaptive scaling.
TARGET_ACCEPT: float = 0.30


@dataclass(frozen=True, slots=True)
class MCMCResult:
    """Output of a Metropolis run.

    Attributes:
        samples: ``(n_kept, d)`` post-burn-in draws.
        log_posts: log posterior of each kept draw.
        accept_rate: overall post-burn-in acceptance rate.
        scales: final proposal scales.
    """

    samples: np.ndarray
    log_posts: np.ndarray
    accept_rate: float
    scales: np.ndarray

    def credible_interval(self, level: float = 0.95) -> np.ndarray:
        """``(2, d)`` equal-tailed credible bounds."""
        alpha = (1 - level) / 2
        return np.quantile(self.samples, [alpha, 1 - alpha], axis=0)

    def effective_sample_size(self) -> np.ndarray:
        """Crude per-dimension ESS from lag-1 autocorrelation."""
        x = self.samples - self.samples.mean(axis=0)
        n = x.shape[0]
        if n < 3:
            return np.full(x.shape[1], float(n))
        num = (x[1:] * x[:-1]).sum(axis=0)
        den = (x * x).sum(axis=0)
        rho1 = np.where(den > 0, num / den, 0.0)
        rho1 = np.clip(rho1, -0.999, 0.999)
        return n * (1 - rho1) / (1 + rho1)


def metropolis(
    log_post: Callable[[np.ndarray], float],
    theta0: np.ndarray,
    *,
    n_samples: int = 2000,
    burn_in: int = 500,
    thin: int = 1,
    init_scales: np.ndarray | float = 0.1,
    rng: np.random.Generator,
) -> MCMCResult:
    """Component-wise adaptive random-walk Metropolis.

    Args:
        log_post: log posterior density (may return ``-inf`` off-support).
        theta0: starting point (must have finite posterior).
        n_samples: kept draws after burn-in and thinning.
        burn_in: adaptation-phase iterations (discarded).
        thin: keep every ``thin``-th draw.
        init_scales: initial per-dimension proposal standard deviations.
        rng: random stream.

    Returns:
        An :class:`MCMCResult`.
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    d = theta.shape[0]
    scales = np.broadcast_to(
        np.asarray(init_scales, dtype=np.float64), (d,)).copy()
    lp = float(log_post(theta))
    if not np.isfinite(lp):
        raise ValueError("theta0 has non-finite log posterior")

    accepts = np.zeros(d, dtype=np.int64)
    proposals = np.zeros(d, dtype=np.int64)
    kept = np.empty((n_samples, d))
    kept_lp = np.empty(n_samples)
    n_kept = 0
    post_accept = 0
    post_total = 0
    total_iters = burn_in + n_samples * thin

    for it in range(total_iters):
        # One component per iteration, round-robin (cheap posteriors; keeps
        # per-dimension adaptation simple and correct).
        k = it % d
        prop = theta.copy()
        prop[k] += rng.normal(0.0, scales[k])
        lp_prop = float(log_post(prop))
        proposals[k] += 1
        accept = np.log(rng.random()) < lp_prop - lp
        if accept:
            theta, lp = prop, lp_prop
            accepts[k] += 1
        if it >= burn_in:
            post_total += 1
            post_accept += int(accept)
            j = it - burn_in
            if j % thin == thin - 1 or thin == 1:
                idx = j // thin
                if idx < n_samples:
                    kept[idx] = theta
                    kept_lp[idx] = lp
                    n_kept = idx + 1
        elif (it + 1) % (50 * d) == 0:
            # Adapt proposal scales toward the target acceptance rate.
            rates = np.where(proposals > 0, accepts / proposals, TARGET_ACCEPT)
            scales *= np.exp(np.clip(rates - TARGET_ACCEPT, -0.5, 0.5))
            accepts[:] = 0
            proposals[:] = 0

    return MCMCResult(
        samples=kept[:n_kept],
        log_posts=kept_lp[:n_kept],
        accept_rate=post_accept / max(1, post_total),
        scales=scales,
    )
