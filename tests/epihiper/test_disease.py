"""DiseaseModel structural validation tests."""

import numpy as np
import pytest

from repro.epihiper.disease import (
    DiseaseModel,
    DiseaseModelError,
    Progression,
    Transmission,
    uniform,
)
from repro.epihiper.states import FixedDwell, HealthState


def tiny_sir():
    states = [
        HealthState("S", susceptibility=1.0),
        HealthState("I", infectivity=1.0, symptomatic=True),
        HealthState("R"),
    ]
    progressions = [Progression("I", "R", uniform(1.0), FixedDwell(5))]
    transmissions = [Transmission("S", "I", "I")]
    return DiseaseModel("sir", states, progressions, transmissions, 0.3)


def test_valid_model_builds():
    m = tiny_sir()
    assert m.n_states == 3
    assert m.code("S") == 0
    assert [s.name for i, s in enumerate(m.states)
            if i not in m.out_edges] == ["S", "R"]


def test_state_masks():
    m = tiny_sir()
    np.testing.assert_array_equal(m.is_susceptible, [True, False, False])
    np.testing.assert_array_equal(m.is_infectious, [False, True, False])
    np.testing.assert_array_equal(m.is_symptomatic, [False, True, False])


def test_exposure_map():
    m = tiny_sir()
    assert m.exposed_of[m.code("S")] == m.code("I")
    assert m.omega[m.code("S"), m.code("I")] == 1.0


def test_rejects_duplicate_states():
    states = [HealthState("S", susceptibility=1.0), HealthState("S")]
    with pytest.raises(DiseaseModelError, match="duplicate"):
        DiseaseModel("bad", states, [], [])


def test_rejects_unknown_state_in_progression():
    states = [HealthState("S", susceptibility=1.0)]
    bad = [Progression("S", "X", uniform(1.0), FixedDwell(1))]
    with pytest.raises(DiseaseModelError, match="unknown state"):
        DiseaseModel("bad", states, bad, [])


def test_rejects_probabilities_not_summing_to_one():
    states = [
        HealthState("A", susceptibility=1.0),
        HealthState("B"),
        HealthState("C"),
    ]
    bad = [
        Progression("A", "B", uniform(0.5), FixedDwell(1)),
        Progression("A", "C", uniform(0.4), FixedDwell(1)),
    ]
    with pytest.raises(DiseaseModelError, match="sum"):
        DiseaseModel("bad", states, bad, [])


def test_rejects_transmission_from_non_susceptible():
    states = [
        HealthState("S", susceptibility=1.0),
        HealthState("I", infectivity=1.0),
        HealthState("R"),
    ]
    with pytest.raises(DiseaseModelError, match="zero susceptibility"):
        DiseaseModel("bad", states, [], [Transmission("R", "I", "I")])


def test_rejects_transmission_from_non_infectious():
    states = [
        HealthState("S", susceptibility=1.0),
        HealthState("R"),
    ]
    with pytest.raises(DiseaseModelError, match="zero infectivity"):
        DiseaseModel("bad", states, [], [Transmission("S", "R", "R")])


def test_progression_needs_all_age_groups():
    with pytest.raises(ValueError, match="probabilities"):
        Progression("A", "B", (0.5, 0.5), FixedDwell(1))


def test_progression_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Progression("A", "B", (1.5,) * 5, FixedDwell(1))


def test_expected_path_lengths():
    m = tiny_sir()
    lengths = m.expected_path_lengths()
    assert lengths["R"] == 0.0
    assert lengths["S"] == 0.0  # no outgoing progression from S
    assert lengths["I"] == pytest.approx(5.0)
