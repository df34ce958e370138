"""Quantile-based emulation for stochastic simulators (Fadikar et al. [18]).

The paper's calibration reference [18] — "Calibrating a stochastic,
agent-based model using quantile-based emulation" — handles simulator
stochasticity by emulating *quantiles* of the replicate distribution at
each design point instead of a single realisation: with R replicates per
design point, the q-quantile curve across replicates is a smooth function
of theta that a GP can emulate, and a set of quantile emulators captures
both the trend and the stochastic spread.

This module fits one :class:`~repro.calibration.gpmsa.GPMSACalibrator`-style
basis + GP stack per quantile level and exposes the combined predictive
machinery the calibration loop needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DEFAULT_P_ETA, OutputBasis, fit_basis
from .gp import GPEmulator, fit_gp
from .lhs import ParameterSpace

#: Default emulated quantile levels (the reference uses a small set
#: spanning the replicate distribution).
DEFAULT_QUANTILES: tuple[float, ...] = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class QuantileEmulator:
    """A fitted multi-quantile emulator.

    Attributes:
        space: parameter space of theta.
        quantiles: emulated quantile levels.
        bases: one output basis per quantile level.
        emulators: per level, one GP per basis coefficient.
    """

    space: ParameterSpace
    quantiles: tuple[float, ...]
    bases: tuple[OutputBasis, ...]
    emulators: tuple[tuple[GPEmulator, ...], ...]

    def predict_quantile(
        self, level: float, thetas: np.ndarray
    ) -> np.ndarray:
        """Predicted q-quantile curves at ``thetas`` rows.

        Returns ``(n_thetas, T)`` mean curves for the requested level.
        """
        try:
            k = self.quantiles.index(level)
        except ValueError:
            raise KeyError(
                f"level {level} not emulated; have {self.quantiles}"
            ) from None
        thetas = np.atleast_2d(thetas)
        xu = self.space.to_unit(thetas)
        w = np.column_stack([gp.predict(xu)[0]
                             for gp in self.emulators[k]])
        return self.bases[k].reconstruct(w)

    def median(self, thetas: np.ndarray) -> np.ndarray:
        """Median-curve prediction (requires 0.5 among the levels)."""
        return self.predict_quantile(0.5, thetas)


def replicate_quantiles(
    replicate_outputs: np.ndarray,
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
) -> np.ndarray:
    """Quantile curves of an ``(n_design, R, T)`` replicate stack.

    Returns ``(len(quantiles), n_design, T)``.
    """
    arr = np.asarray(replicate_outputs, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError("need (n_design, n_replicates, T) outputs")
    if arr.shape[1] < 2:
        raise ValueError("quantile emulation needs >= 2 replicates")
    return np.quantile(arr, quantiles, axis=1)


def fit_quantile_emulator(
    space: ParameterSpace,
    design: np.ndarray,
    replicate_outputs: np.ndarray,
    *,
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
    p_eta: int = DEFAULT_P_ETA,
    seed: int = 0,
) -> QuantileEmulator:
    """Fit the quantile emulator stack.

    Args:
        space: parameter space.
        design: ``(n_design, d)`` natural-unit design.
        replicate_outputs: ``(n_design, R, T)`` raw replicate curves.
        quantiles: levels to emulate.
        p_eta: basis size per level.
        seed: RNG seed for GP fitting.
    """
    design = np.atleast_2d(np.asarray(design, dtype=np.float64))
    q_curves = replicate_quantiles(replicate_outputs, quantiles)
    if design.shape[0] != q_curves.shape[1]:
        raise ValueError("design and outputs disagree on design size")
    rng = np.random.default_rng(seed)
    x_unit = space.to_unit(design)

    bases: list[OutputBasis] = []
    emulators: list[tuple[GPEmulator, ...]] = []
    for k in range(len(quantiles)):
        basis = fit_basis(q_curves[k], p_eta=p_eta)
        coeffs = basis.project(q_curves[k])
        gps = tuple(
            fit_gp(x_unit, coeffs[:, j], rng) for j in range(basis.p)
        )
        bases.append(basis)
        emulators.append(gps)

    return QuantileEmulator(
        space=space,
        quantiles=tuple(quantiles),
        bases=tuple(bases),
        emulators=tuple(emulators),
    )
