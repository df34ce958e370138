"""Medical-cost model for the economic workflow (Case study 1, ref [9]).

"The medical costs include costs incurred by COVID-19 patients for medical
attention, hospitalization, ventilator support, etc.  For each patient, the
total costs depend on the disease severity."

Costs are charged per event (a medical attendance) and per occupied day
(hospital beds, ventilators); unit costs follow published US COVID-19 cost
estimates of the period.  Simulation-scale counts are grossed up by the
inverse scale so reported totals are paper-scale dollars.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analytics.aggregate import RegionSummary
from ..analytics.targets import (
    DAILY_CASES,
    HOSPITAL_CENSUS,
    HOSPITALIZATIONS,
    Target,
    VENTILATOR_CENSUS,
    target_series,
)
from ..epihiper.disease import DiseaseModel

#: A medical-attendance target (every attended case incurs outpatient cost).
_ATTENDANCE = Target("attended", "is_symptomatic")


#: Unit medical costs (2020 US dollars): per medically attended case, per
#: inpatient bed-day (non-ICU average), ICU increment per ventilated day,
#: and the fixed cost of an admission.
OUTPATIENT_VISIT_COST: float = 330.0
HOSPITAL_DAY_COST: float = 2_500.0
VENTILATOR_DAY_COST: float = 4_000.0
HOSPITAL_ADMISSION_COST: float = 3_000.0


@dataclass(frozen=True, slots=True)
class MedicalCosts:
    """Cost breakdown of one scenario, in paper-scale dollars."""

    outpatient: float
    hospital: float
    ventilator: float
    admissions: float

    @property
    def total(self) -> float:
        """Total medical cost."""
        return (self.outpatient + self.hospital
                + self.ventilator + self.admissions)


def compute_medical_costs(
    summary: RegionSummary,
    model: DiseaseModel,
    *,
    scale: float,
) -> MedicalCosts:
    """Cost a simulated scenario.

    Args:
        summary: aggregated simulation output.
        model: the disease model (state flags).
        scale: the simulation scale; counts are multiplied by ``1 / scale``
            to report paper-scale totals.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    gross = 1.0 / scale

    attended = float(target_series(summary, model, DAILY_CASES).sum())
    bed_days = float(target_series(summary, model, HOSPITAL_CENSUS).sum())
    vent_days = float(target_series(summary, model, VENTILATOR_CENSUS).sum())
    admissions = float(target_series(summary, model, HOSPITALIZATIONS).sum())

    return MedicalCosts(
        outpatient=attended * OUTPATIENT_VISIT_COST * gross,
        hospital=bed_days * HOSPITAL_DAY_COST * gross,
        ventilator=vent_days * VENTILATOR_DAY_COST * gross,
        admissions=admissions * HOSPITAL_ADMISSION_COST * gross,
    )


def cost_per_capita(costs: MedicalCosts, population: float) -> float:
    """Total cost per (paper-scale) resident."""
    if population <= 0:
        raise ValueError("population must be positive")
    return costs.total / population
