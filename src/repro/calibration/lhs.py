"""Latin hypercube sampling for calibration designs (McKay et al. [35]).

Case study 3: "We created a design of 100 configurations (prior) with the
Latin hypercube sampling method."  Provides plain and maximin LHS over
boxed parameter spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Candidate designs a maximin LHS chooses among.
MAXIMIN_CANDIDATES: int = 20


@dataclass(frozen=True, slots=True)
class ParameterSpace:
    """A boxed parameter space with named dimensions.

    Attributes:
        names: one label per dimension (e.g. ``("TAU", "SYMP")``).
        lower / upper: bounds per dimension.
    """

    names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo, hi = np.asarray(self.lower), np.asarray(self.upper)
        if lo.shape != hi.shape or lo.shape != (len(self.names),):
            raise ValueError("bounds must match the number of names")
        if (hi <= lo).any():
            raise ValueError("upper bounds must exceed lower bounds")

    @property
    def dim(self) -> int:
        """Number of parameters."""
        return len(self.names)

    def to_unit(self, theta: np.ndarray) -> np.ndarray:
        """Map parameter values into the unit cube."""
        return (np.asarray(theta) - self.lower) / (self.upper - self.lower)

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        """Map unit-cube points into parameter space."""
        return self.lower + np.asarray(u) * (self.upper - self.lower)

    def contains(self, theta: np.ndarray) -> np.ndarray:
        """Boolean mask of rows inside the box."""
        theta = np.atleast_2d(theta)
        return ((theta >= self.lower) & (theta <= self.upper)).all(axis=1)


def latin_hypercube(
    n: int, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """Plain LHS: ``n`` points in the unit cube, one per stratum per axis."""
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be positive")
    u = (rng.random((n, dim)) + np.arange(n)[:, None]) / n
    for k in range(dim):
        u[:, k] = u[rng.permutation(n), k]
    return u


def maximin_lhs(
    n: int,
    dim: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick, of :data:`MAXIMIN_CANDIDATES` LHS draws, the one with the
    largest minimum pairwise distance.

    A cheap space-filling improvement over plain LHS, standard practice for
    GP emulator designs [46].
    """
    best, best_score = None, -np.inf
    for _ in range(MAXIMIN_CANDIDATES):
        u = latin_hypercube(n, dim, rng)
        if n > 1:
            d2 = ((u[:, None, :] - u[None, :, :]) ** 2).sum(-1)
            np.fill_diagonal(d2, np.inf)
            score = float(d2.min())
        else:
            score = 0.0
        if score > best_score:
            best, best_score = u, score
    assert best is not None
    return best


def sample_design(
    space: ParameterSpace,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """An ``(n, dim)`` maximin LHS design over ``space`` in natural units."""
    u = maximin_lhs(n, space.dim, rng)
    return space.from_unit(u)
