"""COVID-19 model (Figure 12, Tables III and IV) validation."""

import numpy as np
import pytest

from repro.epihiper.covid import (
    ASYMPT,
    ATTD,
    ATTD_D,
    ATTD_H,
    DEATH,
    EXPOSED,
    HOSP,
    PRESYMPT,
    RECOVERED,
    RX_FAILURE,
    SUSCEPTIBLE,
    SYMPT,
    TRANSMISSIBILITY,
    VENT,
    build_covid_model,
    build_covid_model_with_symp_fraction,
    covid_progressions,
)


@pytest.fixture(scope="module")
def model():
    return build_covid_model()


def test_fifteen_states(model):
    assert model.n_states == 15


def test_table_iv_transmissibility(model):
    assert model.transmissibility == TRANSMISSIBILITY == 0.18


def test_table_iv_infectivities(model):
    assert model.infectivity[model.code(PRESYMPT)] == 0.8
    assert model.infectivity[model.code(SYMPT)] == 1.0
    assert model.infectivity[model.code(ASYMPT)] == 1.0


def test_table_iv_susceptibilities(model):
    assert model.susceptibility[model.code(SUSCEPTIBLE)] == 1.0
    assert model.susceptibility[model.code(RX_FAILURE)] == 1.0


def test_table_iii_symptomatic_branch_rows_sum_to_one():
    """The legible age-stratified Table III rows sum to exactly 1."""
    rows = {p.dst: np.asarray(p.prob) for p in covid_progressions()
            if p.src == SYMPT}
    total = rows[ATTD] + rows[ATTD_D] + rows[ATTD_H]
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_table_iii_attd_probabilities():
    rows = {p.dst: p.prob for p in covid_progressions() if p.src == SYMPT}
    assert rows[ATTD] == (0.9594, 0.9894, 0.9594, 0.912, 0.788)
    assert rows[ATTD_D] == (0.0006, 0.0006, 0.0006, 0.003, 0.017)
    assert rows[ATTD_H] == (0.04, 0.01, 0.04, 0.085, 0.195)


def test_hospital_severity_increases_with_age():
    rows = {p.dst: p.prob for p in covid_progressions() if p.src == HOSP}
    vent = rows[VENT]
    assert vent == (0.06, 0.06, 0.06, 0.15, 0.225)
    assert list(vent) == sorted(vent)  # non-decreasing in age


def test_exposed_split(model):
    rows = {p.dst: p.prob for p in covid_progressions() if p.src == EXPOSED}
    assert rows[ASYMPT] == (0.35,) * 5
    assert rows[PRESYMPT] == (0.65,) * 5


def test_terminal_states(model):
    terms = {s.name for i, s in enumerate(model.states)
             if i not in model.out_edges}
    assert RECOVERED in terms and DEATH in terms
    assert SUSCEPTIBLE in terms and RX_FAILURE in terms
    assert SYMPT not in terms


def test_death_reachable_only_via_d_track(model):
    """Death's predecessors are exactly the (D)-annotated states."""
    preds = {p.src for p in covid_progressions() if p.dst == DEATH}
    assert preds == {"Attended_D", "Hospitalized_D", "Ventilated_D"}


def test_flags(model):
    assert model.is_hospitalized[model.code(HOSP)]
    assert model.is_ventilated[model.code(VENT)]
    assert model.is_deceased[model.code(DEATH)]
    assert not model.is_deceased[model.code(RECOVERED)]
    assert model.is_symptomatic[model.code(SYMPT)]
    assert not model.is_symptomatic[model.code(PRESYMPT)]


def test_symp_fraction_variant():
    m = build_covid_model_with_symp_fraction(0.3, 0.8)
    assert m.transmissibility == 0.3
    rows = {p.dst: p.prob for p in m.progressions if p.src == EXPOSED}
    assert rows[PRESYMPT] == (0.8,) * 5
    assert rows[ASYMPT] == pytest.approx((0.2,) * 5)


def test_symp_fraction_validation():
    with pytest.raises(ValueError):
        build_covid_model_with_symp_fraction(0.2, 1.5)


def test_expected_course_duration(model):
    """Exposed to absorption takes days-to-weeks, not hours or months."""
    lengths = model.expected_path_lengths()
    assert 8.0 < lengths[EXPOSED] < 30.0


def test_infection_fatality_rate_plausible(model):
    """IFR implied by the branch products should be well under 2% for the
    young and a few percent for 65+."""
    probs = {(p.src, p.dst): np.asarray(p.prob)
             for p in covid_progressions()}
    symp = 0.65
    # P(death | infection) via the Attd(D) chain.
    p_attd_d = probs[(SYMPT, ATTD_D)]
    # All Attd(D) entrants die eventually (0.05 directly, 0.95 via chain).
    ifr_d_track = symp * p_attd_d
    assert ifr_d_track[0] < 0.001
    assert 0.005 < ifr_d_track[-1] < 0.02
