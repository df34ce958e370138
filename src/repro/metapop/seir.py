"""County-level metapopulation SEIR model (Case study 2, Appendix F).

"Our model represents SEIR disease dynamics across counties", with disease
dynamics "modified to reflect the transmissivity of asymptomatic and
pre-symptomatic COVID-19 patients".  Counties are coupled by a
gravity-style mixing matrix (a stand-in for commute flows); transmission
within county i follows a frequency-dependent force of infection::

    lambda_i = beta(t) * sum_j C_ij * I_j / N_j

The model runs deterministically (for use inside the MCMC calibration loop
— "calibration is carried out by directly simulating from the model in the
MCMC loop") or stochastically with binomial transitions (for projection
ensembles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..params import DEFAULT_SEED
from ..synthpop.regions import Region, get_region

#: Fraction of a county's contacts made with other counties.
DEFAULT_MIXING: float = 0.08


@dataclass(frozen=True, slots=True)
class SEIRParams:
    """Disease parameters of the metapopulation model.

    Attributes:
        beta: transmission rate per day.
        incubation_days: mean latent period (1 / sigma).
        infectious_days: mean infectious period (1 / gamma).
        ascertainment: fraction of new infections observed as confirmed
            cases (links model incidence to surveillance counts).
        report_delay: mean reporting delay in days.
    """

    beta: float
    incubation_days: float = 5.0
    infectious_days: float = 6.0
    ascertainment: float = 0.25
    report_delay: int = 7

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.incubation_days <= 0 or self.infectious_days <= 0:
            raise ValueError("periods must be positive")

    @property
    def r0(self) -> float:
        """Basic reproduction number beta / gamma."""
        return self.beta * self.infectious_days


@dataclass(frozen=True, slots=True)
class MetapopResult:
    """Trajectories of one metapopulation run.

    All arrays are ``(T + 1, C)`` (time x county); ``new_infections`` and
    ``confirmed`` are ``(T, C)`` daily counts.
    """

    s: np.ndarray
    e: np.ndarray
    i: np.ndarray
    r: np.ndarray
    new_infections: np.ndarray
    confirmed: np.ndarray

    def state_confirmed_cumulative(self) -> np.ndarray:
        """State-level cumulative confirmed cases, length ``n_days``."""
        return np.cumsum(self.confirmed.sum(axis=1))

    def county_confirmed_cumulative(self) -> np.ndarray:
        """``(C, T)`` per-county cumulative confirmed cases."""
        return np.cumsum(self.confirmed, axis=0).T

    def conservation_error(self) -> float:
        """Max deviation of S+E+I+R from the initial total (should be ~0)."""
        totals = (self.s + self.e + self.i + self.r).sum(axis=1)
        return float(np.abs(totals - totals[0]).max())


def gravity_coupling(county_pop: np.ndarray) -> np.ndarray:
    """Row-stochastic county contact matrix.

    Diagonal mass ``1 -`` :data:`DEFAULT_MIXING`; the rest spreads over other
    counties proportionally to their population (a gravity model with unit
    distance, standing in for ACS commute flows).
    """
    county_pop = np.asarray(county_pop, dtype=np.float64)
    c = county_pop.shape[0]
    if c == 1:
        return np.ones((1, 1))
    w = np.tile(county_pop, (c, 1))
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return (1.0 - DEFAULT_MIXING) * np.eye(c) + DEFAULT_MIXING * w


class MetapopModel:
    """A region's county-coupled SEIR system."""

    def __init__(
        self,
        county_pop: np.ndarray,
        *,
        coupling: np.ndarray | None = None,
    ) -> None:
        self.county_pop = np.asarray(county_pop, dtype=np.float64)
        if (self.county_pop <= 0).any():
            raise ValueError("county populations must be positive")
        self.coupling = (
            coupling if coupling is not None
            else gravity_coupling(self.county_pop)
        )
        c = self.county_pop.shape[0]
        if self.coupling.shape != (c, c):
            raise ValueError("coupling matrix shape mismatch")
        if not np.allclose(self.coupling.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("coupling matrix must be row-stochastic")

    @classmethod
    def for_region(
        cls, region: Region | str,
    ) -> "MetapopModel":
        """Build a model from a region's heavy-tailed county populations."""
        if isinstance(region, str):
            region = get_region(region)
        rng = np.random.default_rng((DEFAULT_SEED, region.fips, 7))
        ranks = np.arange(1, region.counties + 1, dtype=np.float64)
        w = ranks ** -0.9 * rng.lognormal(0.0, 0.25, size=region.counties)
        pops = np.maximum(w / w.sum() * region.population, 100.0)
        return cls(pops)

    @property
    def n_counties(self) -> int:
        """Number of counties."""
        return int(self.county_pop.shape[0])

    def run(
        self,
        params: SEIRParams,
        n_days: int,
        *,
        initial_infected: np.ndarray | float = 10.0,
        beta_modifier: Callable[[int], float] | None = None,
        stochastic: bool = False,
        rng: np.random.Generator | None = None,
    ) -> MetapopResult:
        """Integrate the system for ``n_days`` daily steps.

        Args:
            params: disease parameters.
            n_days: horizon.
            initial_infected: per-county initial I (scalar spreads it
                proportionally to population).
            beta_modifier: optional time-varying multiplier on beta — the
                hook the Case-study-2 scenarios use for social distancing.
            stochastic: binomial transitions instead of expectations.
            rng: required when ``stochastic``.
        """
        c = self.n_counties
        n = self.county_pop
        if np.isscalar(initial_infected):
            i0 = float(initial_infected) * n / n.sum()
        else:
            i0 = np.asarray(initial_infected, dtype=np.float64)
            if i0.shape != (c,):
                raise ValueError("initial_infected shape mismatch")
        i0 = np.minimum(i0, n)
        if stochastic and rng is None:
            raise ValueError("stochastic runs need an rng")

        sigma = 1.0 / params.incubation_days
        gamma = 1.0 / params.infectious_days

        s = np.empty((n_days + 1, c))
        e = np.empty((n_days + 1, c))
        i = np.empty((n_days + 1, c))
        r = np.empty((n_days + 1, c))
        new_inf = np.zeros((n_days, c))

        s[0] = n - i0
        e[0] = 0.0
        i[0] = i0
        r[0] = 0.0

        for t in range(n_days):
            beta_t = params.beta
            if beta_modifier is not None:
                beta_t = beta_t * beta_modifier(t)
            foi = beta_t * (self.coupling @ (i[t] / n))
            p_inf = -np.expm1(-foi)
            p_prog = -np.expm1(-sigma)
            p_rec = -np.expm1(-gamma)
            if stochastic:
                assert rng is not None
                inf = rng.binomial(s[t].astype(np.int64), p_inf)
                prog = rng.binomial(e[t].astype(np.int64), p_prog)
                rec = rng.binomial(i[t].astype(np.int64), p_rec)
            else:
                inf = s[t] * p_inf
                prog = e[t] * p_prog
                rec = i[t] * p_rec
            s[t + 1] = s[t] - inf
            e[t + 1] = e[t] + inf - prog
            i[t + 1] = i[t] + prog - rec
            r[t + 1] = r[t] + rec
            new_inf[t] = inf

        confirmed = new_inf * params.ascertainment
        if params.report_delay > 0:
            confirmed = np.roll(confirmed, params.report_delay, axis=0)
            confirmed[: params.report_delay] = 0.0

        return MetapopResult(s, e, i, r, new_inf, confirmed)
