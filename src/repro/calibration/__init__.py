"""Bayesian calibration: LHS designs, GP emulation, GPMSA-style MCMC."""

from .basis import DEFAULT_P_ETA, OutputBasis, fit_basis
from .discrepancy import (
    DEFAULT_P_DELTA,
    discrepancy_basis,
)
from .gp import GPEmulator, fit_gp, gpmsa_correlation
from .gpmsa import (
    CalibrationResult,
    GPMSACalibrator,
    log_counts,
)
from .lhs import (
    ParameterSpace,
    latin_hypercube,
    maximin_lhs,
    sample_design,
)
from .mcmc import MCMCResult, metropolis
from .quantile import (
    QuantileEmulator,
    fit_quantile_emulator,
    replicate_quantiles,
)

__all__ = [
    "QuantileEmulator",
    "fit_quantile_emulator",
    "replicate_quantiles",
    "CalibrationResult",
    "DEFAULT_P_DELTA",
    "DEFAULT_P_ETA",
    "GPEmulator",
    "GPMSACalibrator",
    "MCMCResult",
    "OutputBasis",
    "ParameterSpace",
    "discrepancy_basis",
    "fit_basis",
    "fit_gp",
    "gpmsa_correlation",
    "latin_hypercube",
    "log_counts",
    "maximin_lhs",
    "metropolis",
    "sample_design",
]
