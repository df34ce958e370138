"""Forecast targets: confirmed cases, hospitalizations, ventilations, deaths.

The prediction workflow aggregates individual-level output "to obtain future
counts for various forecasting targets (e.g. confirmed cases,
hospitalizations, deaths) at various spatial resolution (state or county
level) with different temporal horizons" (Section II).  A target names the
disease-model states that count toward it and whether the series is an
incidence (new entries) or a census (current occupancy, e.g. beds in use).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..epihiper.disease import DiseaseModel
from .aggregate import RegionSummary


@dataclass(frozen=True, slots=True)
class Target:
    """A named forecast target.

    Attributes:
        name: e.g. ``"confirmed"``.
        flag: DiseaseModel state-mask attribute selecting the states
            (``is_symptomatic``, ``is_hospitalized``, ``is_ventilated``,
            ``is_deceased``).
        census: when true the series is the current occupancy; otherwise
            daily new entries (first entry into any selected state).
        cumulative: report the running total of the incidence.
    """

    name: str
    flag: str
    census: bool = False
    cumulative: bool = False


#: The paper's standard targets.
CONFIRMED = Target("confirmed", "is_symptomatic", cumulative=True)
DAILY_CASES = Target("daily_cases", "is_symptomatic")
HOSPITALIZATIONS = Target("hospitalizations", "is_hospitalized")
HOSPITAL_CENSUS = Target("hospital_census", "is_hospitalized", census=True)
VENTILATIONS = Target("ventilations", "is_ventilated")
VENTILATOR_CENSUS = Target("ventilator_census", "is_ventilated", census=True)
DEATHS = Target("deaths", "is_deceased", cumulative=True)

ALL_TARGETS: tuple[Target, ...] = (
    CONFIRMED, DAILY_CASES, HOSPITALIZATIONS, HOSPITAL_CENSUS,
    VENTILATIONS, VENTILATOR_CENSUS, DEATHS,
)

#: The infectious census, whose :func:`peak_demand` day is the epidemic
#: peak.
INFECTIOUS_CENSUS = Target("infectious_census", "is_infectious", census=True)


def target_series(
    summary: RegionSummary, model: DiseaseModel, target: Target
) -> np.ndarray:
    """Extract a target's time series from a region summary.

    Incidence targets count *first* entries into the selected state group by
    using the group's entry state (persons re-entering a group through an
    internal transition, e.g. Hospitalized -> Ventilated, are not double
    counted for the hospitalization target because Ventilated entries are
    summed separately only when selected).

    Args:
        summary: aggregated replicate output.
        model: supplies the state masks.
        target: what to extract.

    Returns:
        ``(T,)`` series.
    """
    mask = getattr(model, target.flag)
    if mask.shape[0] != summary.n_states:
        raise ValueError("summary and model disagree on state count")
    if target.census:
        return summary.current[:, mask].sum(axis=1)
    # Incidence: new entries into the group = entries into member states
    # from non-member states.  The summary's per-state "new" counts include
    # intra-group moves, so subtract transitions between member states by
    # using the group's entry chokepoints where the model has them.
    new = summary.new[:, mask].sum(axis=1)
    internal = _internal_entries(summary, model, mask)
    series = new - internal
    if target.cumulative:
        return np.cumsum(series)
    return series


def _internal_entries(
    summary: RegionSummary, model: DiseaseModel, mask: np.ndarray
) -> np.ndarray:
    """Per-day entries into masked states reachable from masked states.

    Exact whenever every masked state with a masked predecessor has *only*
    masked predecessors, which holds for the COVID-19 model's target groups
    (e.g. Ventilated is entered only from Hospitalized).
    """
    internal = np.zeros(summary.new.shape[0], dtype=np.int64)
    for code, (dsts, _probs, _dwells) in model.out_edges.items():
        if not mask[code]:
            continue
        for dst in dsts:
            if mask[dst]:
                internal += summary.new[:, dst]
    return internal


def peak_demand(summary: RegionSummary, model: DiseaseModel,
                target: Target) -> tuple[int, int]:
    """(day, value) of the peak of a census target (resource planning)."""
    series = target_series(summary, model, target)
    day = int(np.argmax(series))
    return day, int(series[day])
