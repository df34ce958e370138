"""Aggregation of individual-level output to county / state summaries.

"From the individual-level output data, we can aggregate simulation results
to the county level for different health states, and use the summary data
for calibration and prediction" (Section III).  The summary layout follows
the paper's accounting: per day x health state, three counts — *new*
entries, *current* census, and *cumulative* entries — which is the
"365 days x 90 health states x 3 counts" of Figures 3-5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..epihiper.disease import DiseaseModel
from ..epihiper.engine import SimulationResult
from ..epihiper.output import TransitionLog
from ..params import BYTES_PER_SUMMARY_ENTRY
from ..synthpop.persons import Population

#: The three per-(day, state) counts of the paper's summary format.
COUNT_KINDS: tuple[str, ...] = ("new", "current", "cumulative")


@dataclass(frozen=True, slots=True)
class RegionSummary:
    """Aggregated output of one simulation replicate.

    Attributes:
        region_code: region simulated.
        n_days: ticks covered.
        new: ``(T, S)`` persons entering each state per day.
        current: ``(T, S)`` census per state per day.
        cumulative: ``(T, S)`` running total of ``new``.
    """

    region_code: str
    n_days: int
    new: np.ndarray
    current: np.ndarray
    cumulative: np.ndarray

    @property
    def n_states(self) -> int:
        """Number of health states covered."""
        return int(self.new.shape[1])

    @property
    def summary_bytes(self) -> int:
        """Paper-format size of this summary (entries x bytes/entry)."""
        return 3 * self.new.size * BYTES_PER_SUMMARY_ENTRY

    def series(self, kind: str, state_code: int) -> np.ndarray:
        """One (kind, state) time series; ``kind`` in COUNT_KINDS."""
        if kind not in COUNT_KINDS:
            raise KeyError(f"kind must be one of {COUNT_KINDS}")
        return getattr(self, kind if kind != "new" else "new")[:, state_code]


def summarize(result: SimulationResult, model: DiseaseModel) -> RegionSummary:
    """Aggregate a simulation result into the paper's summary format."""
    t_len = result.n_days + 1
    n_states = model.n_states
    new = np.zeros((t_len, n_states), dtype=np.int64)
    log = result.log
    if log.size:
        np.add.at(new, (log.tick, log.state.astype(np.int64)), 1)
    cumulative = np.cumsum(new, axis=0)
    return RegionSummary(
        region_code=result.region_code,
        n_days=result.n_days,
        new=new,
        current=result.state_counts.astype(np.int64),
        cumulative=cumulative,
    )


def county_daily_counts(
    log: TransitionLog,
    pop: Population,
    state_code: int,
    n_days: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Daily new entries into ``state_code`` per county.

    Returns:
        ``(county_fips, counts)`` where counts is ``(C, n_days + 1)``.
        This is the series compared against surveillance during calibration
        ("the time series of daily cumulative counts of symptomatic cases at
        the state or county level are compared to the ground truth").
    """
    fips = pop.county_codes
    index = {int(c): i for i, c in enumerate(fips)}
    counts = np.zeros((fips.size, n_days + 1), dtype=np.int64)
    rows = log.entering(state_code)
    if rows.size:
        persons = log.pid[rows]
        ticks = log.tick[rows]
        c_idx = np.asarray([index[int(c)] for c in pop.county[persons]])
        np.add.at(counts, (c_idx, ticks), 1)
    return fips, counts


def state_cumulative_curve(
    log: TransitionLog, state_code: int, n_days: int
) -> np.ndarray:
    """State-level cumulative entries into ``state_code`` per day."""
    daily = np.zeros(n_days + 1, dtype=np.int64)
    rows = log.entering(state_code)
    if rows.size:
        np.add.at(daily, log.tick[rows], 1)
    return np.cumsum(daily)
