"""Direct-MCMC calibration of the metapopulation model (Appendix E, Eq. 6).

"Unlike Agent-Based Models, the metapopulation model is cheap to run, hence,
calibration is carried out by directly simulating from the model in the
Markov Chain Monte Carlo loop."  The likelihood is a product of per-county
multivariate Gaussians with "noise standard deviation ... assumed to be 20%
of the daily case counts", independence between counties, and uniform
priors on the parameters of interest (transmissibility and infectious
duration — "Transmissibility and infectious duration parameters are
calibrated based on county-level confirmed cases").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..params import DEFAULT_SEED
from ..surveillance.truth import GroundTruth
from .seir import MetapopModel, SEIRParams
from ..calibration.lhs import ParameterSpace
from ..calibration.mcmc import MCMCResult, metropolis

#: Eq. 6: observation noise sd as a fraction of daily counts.
NOISE_FRACTION: float = 0.20
#: Noise floor so zero-count days do not produce a degenerate likelihood.
NOISE_FLOOR: float = 1.0
#: Uniform prior ranges of the calibrated (beta, infectious_days).
BETA_BOUNDS: tuple[float, float] = (0.1, 0.8)
INFECTIOUS_BOUNDS: tuple[float, float] = (3.0, 10.0)


@dataclass(frozen=True)
class MetapopCalibration:
    """Posterior of a metapopulation calibration.

    Attributes:
        space: parameter space of (beta, infectious_days).
        mcmc: raw MCMC output.
        map_params: highest-posterior sample, as :class:`SEIRParams`.
        onset_day: surveillance day the model clock was aligned to (the
            day the outbreak first appears in the data; simulations of the
            calibrated model should start at this day).
        initial_infected: per-county seeding used during calibration.
    """

    space: ParameterSpace
    mcmc: MCMCResult
    map_params: SEIRParams
    onset_day: int = 0
    initial_infected: float | None = None

    def posterior_params(
        self, n: int, rng: np.random.Generator
    ) -> list[SEIRParams]:
        """Draw ``n`` parameter sets from the posterior sample."""
        idx = rng.choice(self.mcmc.samples.shape[0], size=n, replace=True)
        return [
            SEIRParams(beta=float(b), infectious_days=float(g))
            for b, g in self.mcmc.samples[idx]
        ]


def county_log_likelihood(
    model_confirmed: np.ndarray, observed_daily: np.ndarray
) -> float:
    """Eq. 6 log likelihood over all counties and days.

    Args:
        model_confirmed: ``(T, C)`` simulated daily confirmed cases.
        observed_daily: ``(C, T)`` observed daily counts (surveillance
            layout).

    The per-county error covariance Sigma^(c) is diagonal with sd equal to
    20% of the observed daily count (floored), so the product of C
    multivariate Gaussian pdfs factorises over days.
    """
    obs = observed_daily.T  # (T, C)
    if model_confirmed.shape != obs.shape:
        raise ValueError("model and observation shapes differ")
    sd = np.maximum(NOISE_FRACTION * obs, NOISE_FLOOR)
    z = (obs - model_confirmed) / sd
    return float(-0.5 * np.sum(z ** 2) - np.sum(np.log(sd))
                 - 0.5 * obs.size * np.log(2 * np.pi))


def calibrate_metapop(
    model: MetapopModel,
    truth: GroundTruth,
    *,
    n_samples: int = 1000,
    burn_in: int = 600,
    seed: int = DEFAULT_SEED,
    initial_infected: float = 20.0,
) -> MetapopCalibration:
    """Calibrate (beta, infectious_days) against county surveillance.

    Runs the deterministic model inside the Metropolis loop, exactly as the
    paper describes for the metapopulation pathway, under uniform priors
    on :data:`BETA_BOUNDS` x :data:`INFECTIOUS_BOUNDS`.

    Args:
        model: the county system (county count must match ``truth``).
        truth: the observed series.
        n_samples / burn_in: MCMC budget.
        seed: RNG seed.
        initial_infected: total initial infections spread over counties.
    """
    if model.n_counties != truth.n_counties:
        raise ValueError("model and truth county counts differ")
    space = ParameterSpace(
        ("beta", "infectious_days"),
        np.asarray([BETA_BOUNDS[0], INFECTIOUS_BOUNDS[0]]),
        np.asarray([BETA_BOUNDS[1], INFECTIOUS_BOUNDS[1]]),
    )
    rng = np.random.default_rng(seed)

    # Align the model clock with the outbreak: surveillance series lead
    # with a quiet importation period, so the model is seeded at the first
    # observed case and compared against the post-onset window.  Without
    # this alignment a high-beta fit peaks during the quiet period and the
    # posterior degenerates to near-zero transmission.
    state_daily = truth.daily.sum(axis=0)
    nz = np.flatnonzero(state_daily > 0)
    onset = int(nz[0]) if nz.size else 0
    obs_daily = truth.daily[:, onset:]
    n_days = obs_daily.shape[1]

    def log_post(theta: np.ndarray) -> float:
        if not space.contains(theta)[0]:
            return -np.inf
        params = SEIRParams(beta=float(theta[0]),
                            infectious_days=float(theta[1]))
        result = model.run(params, n_days,
                           initial_infected=initial_infected)
        return county_log_likelihood(result.confirmed, obs_daily)

    theta0 = np.asarray([
        (BETA_BOUNDS[0] + BETA_BOUNDS[1]) / 2,
        (INFECTIOUS_BOUNDS[0] + INFECTIOUS_BOUNDS[1]) / 2,
    ])
    mcmc = metropolis(
        log_post, theta0,
        n_samples=n_samples, burn_in=burn_in,
        init_scales=np.asarray([0.03, 0.3]), rng=rng,
    )
    best = mcmc.samples[np.argmax(mcmc.log_posts)]
    return MetapopCalibration(
        space=space,
        mcmc=mcmc,
        map_params=SEIRParams(beta=float(best[0]),
                              infectious_days=float(best[1])),
        onset_day=onset,
        initial_infected=initial_infected,
    )
