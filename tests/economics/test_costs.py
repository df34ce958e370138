"""Medical-cost model tests."""

import pytest

from repro.analytics.aggregate import summarize
from repro.economics import costs as cost_model
from repro.economics.costs import (
    MedicalCosts,
    compute_medical_costs,
    cost_per_capita,
)


@pytest.fixture(scope="module")
def summary(va_run, covid_model):
    _pop, _net, result = va_run
    return summarize(result, covid_model)


def test_costs_positive_for_real_epidemic(summary, covid_model):
    costs = compute_medical_costs(summary, covid_model, scale=1e-3)
    assert costs.total > 0
    assert costs.outpatient > 0
    assert costs.total == pytest.approx(
        costs.outpatient + costs.hospital + costs.ventilator
        + costs.admissions)


def test_gross_up_by_scale(summary, covid_model):
    at_milli = compute_medical_costs(summary, covid_model, scale=1e-3)
    at_centi = compute_medical_costs(summary, covid_model, scale=1e-2)
    assert at_milli.total == pytest.approx(10 * at_centi.total)


def test_custom_unit_costs(summary, covid_model, monkeypatch):
    base = compute_medical_costs(summary, covid_model, scale=1e-3)
    monkeypatch.setattr(cost_model, "OUTPATIENT_VISIT_COST", 660.0)
    doubled = compute_medical_costs(summary, covid_model, scale=1e-3)
    assert doubled.outpatient == pytest.approx(2 * base.outpatient)
    assert doubled.hospital == pytest.approx(base.hospital)


def test_scale_validation(summary, covid_model):
    with pytest.raises(ValueError):
        compute_medical_costs(summary, covid_model, scale=0.0)


def test_cost_per_capita():
    costs = MedicalCosts(outpatient=1e6, hospital=2e6, ventilator=0.0,
                         admissions=0.0)
    assert cost_per_capita(costs, 1e6) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        cost_per_capita(costs, 0)


def test_hospital_costs_dominate_outpatient_per_case(summary, covid_model):
    """A hospital stay costs far more than an outpatient course."""
    costs = compute_medical_costs(summary, covid_model, scale=1e-3)
    from repro.analytics.targets import DAILY_CASES, HOSPITALIZATIONS, target_series
    cases = target_series(summary, covid_model, DAILY_CASES).sum()
    admissions = target_series(summary, covid_model, HOSPITALIZATIONS).sum()
    if admissions > 0:
        per_admission = (costs.hospital + costs.admissions) / admissions
        per_case = costs.outpatient / cases
        assert per_admission > 5 * per_case
