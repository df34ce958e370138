"""Week-long activity sequence tests."""

import numpy as np
import pytest

from repro.synthpop.activities import RELIGION, SCHOOL, WORK
from repro.synthpop.persons import generate_population
from repro.synthpop.week import (
    WeeklyActivities,
    assign_week,
)


@pytest.fixture(scope="module")
def week():
    pop = generate_population("VT", scale=1e-2, seed=21)
    rng = np.random.default_rng(21)
    return pop, assign_week(pop, rng)


def test_seven_days(week):
    _pop, w = week
    assert len(w.days) == 7


def test_weekdays_have_school(week):
    _pop, w = week
    for d in range(5):
        assert (w.day(d).kind == SCHOOL).any()


def test_weekend_has_no_school(week):
    _pop, w = week
    for d in (5, 6):
        assert not (w.day(d).kind == SCHOOL).any()


def test_weekend_work_reduced(week):
    _pop, w = week
    weekday_work = (w.day(1).kind == WORK).sum()
    weekend_work = (w.day(5).kind == WORK).sum()
    assert weekend_work < 0.5 * weekday_work


def test_sunday_religion_boost(week):
    _pop, w = week
    sunday = (w.day(6).kind == RELIGION).sum()
    wednesday = (w.day(2).kind == RELIGION).sum()
    assert sunday > wednesday


def test_everyone_home_every_day(week):
    pop, w = week
    from repro.synthpop.activities import HOME

    for d in range(7):
        table = w.day(d)
        homes = np.unique(table.person[table.kind == HOME])
        assert homes.size == pop.size


def test_weekday_variation(week):
    """Weekdays are independent realisations, not copies."""
    _pop, w = week
    assert w.day(0).size != w.day(1).size or not np.array_equal(
        w.day(0).start, w.day(1).start)


def test_tables_sorted(week):
    _pop, w = week
    for d in range(7):
        assert (np.diff(w.day(d).person) >= 0).all()


def test_summary_shape(week):
    _pop, w = week
    school = [int((day.kind == SCHOOL).sum()) for day in w.days]
    assert len(school) == 7
    assert school[5] == 0  # Saturday
    assert school[0] > 0  # Monday


def test_validation():
    with pytest.raises(ValueError, match="7 days"):
        WeeklyActivities(days=())
