"""Multi-source surveillance merging (Section III, "Input data to calibration").

The paper pulls confirmed cases "from multiple data sources" — the NYT
repository, the JHU dashboard, and UVA's own COVID-19 surveillance
dashboard — which disagree on revision lag, missing counties and reporting
artifacts.  This module simulates those source-specific distortions on top
of a common :class:`~repro.surveillance.truth.GroundTruth` and merges them
the way the production pipeline does (per-county, per-day maximum of the
cumulative counts, which is robust to missed reporting days).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .truth import GroundTruth


@dataclass(frozen=True, slots=True)
class SourceSpec:
    """Distortion profile of one surveillance source."""

    name: str
    revision_lag: int  #: days by which the tail is stale
    dropout: float  #: probability a county is entirely missing
    dump_probability: float  #: chance a day's count is deferred to the next


#: Stand-ins for the three production sources.
NYT = SourceSpec("nyt", revision_lag=1, dropout=0.00, dump_probability=0.03)
JHU = SourceSpec("jhu", revision_lag=2, dropout=0.01, dump_probability=0.06)
UVA_DASHBOARD = SourceSpec(
    "uva-dashboard", revision_lag=0, dropout=0.03, dump_probability=0.02)

DEFAULT_SOURCES: tuple[SourceSpec, ...] = (NYT, JHU, UVA_DASHBOARD)


def observe_through_source(
    truth: GroundTruth, spec: SourceSpec, rng: np.random.Generator
) -> GroundTruth:
    """One source's (distorted) view of the truth.

    Applies county dropout, back-loaded "data dump" days where a count is
    reported a day late, and a stale tail of ``revision_lag`` days.
    """
    daily = truth.daily.copy()

    dropped = rng.random(truth.n_counties) < spec.dropout
    daily[dropped] = 0.0

    if spec.dump_probability > 0:
        dump = rng.random(daily.shape) < spec.dump_probability
        dump[:, -1] = False
        moved = np.where(dump, daily, 0.0)
        daily -= moved
        daily[:, 1:] += moved[:, :-1]

    if spec.revision_lag > 0:
        daily[:, -spec.revision_lag:] = 0.0

    return GroundTruth(
        truth.region_code, truth.county, daily, np.cumsum(daily, axis=1))


def merge_sources(views: list[GroundTruth]) -> GroundTruth:
    """Merge source views: per-cell max of cumulative counts.

    Cumulative maxima recover counts a source missed while never going
    backwards; daily counts are re-derived by differencing.
    """
    if not views:
        raise ValueError("need at least one source view")
    first = views[0]
    for v in views[1:]:
        if v.region_code != first.region_code or v.n_days != first.n_days:
            raise ValueError("source views disagree on region or horizon")
    cumulative = np.maximum.reduce([v.cumulative for v in views])
    # Enforce monotonicity (max across sources already is, but be safe).
    cumulative = np.maximum.accumulate(cumulative, axis=1)
    daily = np.diff(cumulative, prepend=np.zeros((first.n_counties, 1)))
    return GroundTruth(first.region_code, first.county, daily, cumulative)


def multi_source_truth(
    truth: GroundTruth,
    rng: np.random.Generator,
) -> GroundTruth:
    """Simulate :data:`DEFAULT_SOURCES` and merge them — the calibration
    input feed."""
    views = [observe_through_source(truth, s, rng) for s in DEFAULT_SOURCES]
    return merge_sources(views)
