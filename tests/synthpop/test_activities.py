"""Activity-sequence assignment tests."""

import numpy as np
import pytest

from repro.synthpop.activities import (
    ACTIVITY_TYPES,
    COLLEGE,
    HOME,
    SCHOOL,
    WORK,
    assign_activities,
)
from repro.synthpop.persons import generate_population


@pytest.fixture(scope="module")
def pop_acts():
    pop = generate_population("VA", scale=1e-3, seed=2)
    rng = np.random.default_rng(2)
    return pop, assign_activities(pop, rng)


def test_everyone_has_home_anchor(pop_acts):
    pop, acts = pop_acts
    home_persons = np.unique(acts.person[acts.kind == HOME])
    assert home_persons.size == pop.size


def test_school_only_for_school_age(pop_acts):
    pop, acts = pop_acts
    school_persons = acts.person[acts.kind == SCHOOL]
    ages = pop.age[school_persons]
    assert ages.min() >= 5 and ages.max() <= 17


def test_all_school_age_attend(pop_acts):
    pop, acts = pop_acts
    school_age = ((pop.age >= 5) & (pop.age <= 17)).sum()
    assert np.unique(acts.person[acts.kind == SCHOOL]).size == school_age


def test_college_age_bounds(pop_acts):
    pop, acts = pop_acts
    students = acts.person[acts.kind == COLLEGE]
    if students.size:
        ages = pop.age[students]
        assert ages.min() >= 18 and ages.max() <= 22


def test_workers_are_working_age_and_not_students(pop_acts):
    pop, acts = pop_acts
    workers = acts.person[acts.kind == WORK]
    ages = pop.age[workers]
    assert ages.min() >= 18 and ages.max() <= 64
    students = set(acts.person[acts.kind == COLLEGE].tolist())
    assert not (set(workers.tolist()) & students)


def test_employment_rate_plausible(pop_acts):
    pop, acts = pop_acts
    working_age = ((pop.age >= 18) & (pop.age <= 64)).sum()
    workers = np.unique(acts.person[acts.kind == WORK]).size
    assert 0.55 < workers / working_age < 0.85


def test_times_within_day(pop_acts):
    _pop, acts = pop_acts
    assert acts.start.min() >= 0
    assert acts.start.max() < 24 * 60
    assert acts.duration.min() > 0


def test_sorted_by_person(pop_acts):
    _pop, acts = pop_acts
    assert (np.diff(acts.person) >= 0).all()


def test_kind_counts_cover_all_types(pop_acts):
    _pop, acts = pop_acts
    counts = dict(zip(ACTIVITY_TYPES, np.bincount(
        acts.kind, minlength=len(ACTIVITY_TYPES))))
    assert set(counts) == set(ACTIVITY_TYPES)
    assert counts["home"] == np.unique(acts.person).size
