"""Ensemble statistics over replicate simulations (prediction workflow).

"The ensemble of the model configurations and the simulation output provides
uncertainty quantification on the predictions" (Section II).  Given per-
replicate time series this module produces median forecasts and uncertainty
bands — the blue curve and yellow 95% band of Figure 17.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Central coverage of every ensemble band: the paper's 95%.
BAND_LEVEL: float = 0.95


@dataclass(frozen=True, slots=True)
class EnsembleBand:
    """Quantile summary of an ensemble of time series.

    Attributes:
        median: ``(T,)`` pointwise median.
        lower: ``(T,)`` lower quantile bound.
        upper: ``(T,)`` upper quantile bound.
        level: nominal coverage of [lower, upper] (0.95 for a 95% band).
    """

    median: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float

    @property
    def n_days(self) -> int:
        """Length of the band."""
        return int(self.median.shape[0])

    def covers(self, observed: np.ndarray) -> np.ndarray:
        """Pointwise coverage mask of an observed series."""
        observed = np.asarray(observed)
        if observed.shape[0] != self.n_days:
            raise ValueError("observed series length mismatch")
        return (observed >= self.lower) & (observed <= self.upper)


def ensemble_band(series: np.ndarray) -> EnsembleBand:
    """Build the :data:`BAND_LEVEL` quantile band from an ``(R, T)``
    stack of replicate series (replicates x time)."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2 or series.shape[0] < 1:
        raise ValueError("series must be (replicates, time) with >= 1 row")
    alpha = (1.0 - BAND_LEVEL) / 2.0
    return EnsembleBand(
        median=np.quantile(series, 0.5, axis=0),
        lower=np.quantile(series, alpha, axis=0),
        upper=np.quantile(series, 1.0 - alpha, axis=0),
        level=BAND_LEVEL,
    )


def pool_cells(cell_series: list[np.ndarray]) -> np.ndarray:
    """Pool replicate series from several cells into one ensemble matrix.

    Prediction workflows pool all replicates of all plausible configurations
    (cells) into a single ensemble; series must share a time axis.
    """
    if not cell_series:
        raise ValueError("no cells given")
    t = cell_series[0].shape[-1]
    rows = []
    for arr in cell_series:
        arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
        if arr.shape[-1] != t:
            raise ValueError("cells disagree on horizon")
        rows.append(arr)
    return np.vstack(rows)
