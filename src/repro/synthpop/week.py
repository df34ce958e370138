"""Week-long activity sequences and the G_Wednesday projection.

Appendix C: each person is assigned "a week-long activity sequence", the
contact network G is derived for the whole week, and "for the applications
and scenarios of this paper, we project from G, the week-long contact
network, to G_Wednesday, representing the contact network on a 'typical
day'".

This module builds the weekly schedule — weekday templates Monday-Friday,
distinct weekend behaviour (no school/work for most, more discretionary and
religious activity on Sunday) — and provides the per-day projection, with
Wednesday reproducing the single-day generator used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activities import (
    ActivityTable,
    RELIGION,
    SCHOOL,
    WORK,
    assign_activities,
)
from .persons import Population

#: Day labels; index is the day-of-week key used throughout.
WEEKDAYS: tuple[str, ...] = (
    "monday", "tuesday", "wednesday", "thursday", "friday",
    "saturday", "sunday",
)

#: Fraction of workers who also work a weekend day.
WEEKEND_WORK_RATE: float = 0.18
#: Multiplier on discretionary participation at weekends.
WEEKEND_DISCRETIONARY_BOOST: float = 1.6
#: Religion participation on Sunday vs the weekday rate.
SUNDAY_RELIGION_RATE: float = 0.35


@dataclass(frozen=True)
class WeeklyActivities:
    """Seven per-day activity tables for one population."""

    days: tuple[ActivityTable, ...]

    def __post_init__(self) -> None:
        if len(self.days) != 7:
            raise ValueError("a week has 7 days")

    def day(self, index: int) -> ActivityTable:
        """The activity table of one day (0 = Monday)."""
        return self.days[index]


def _weekend_table(
    pop: Population, rng: np.random.Generator, *, sunday: bool
) -> ActivityTable:
    """A weekend day's activities: home anchor, rare work, boosted
    discretionary, Sunday religion."""
    base = assign_activities(pop, rng)
    keep = np.ones(base.size, dtype=bool)

    # Drop school entirely; keep a small fraction of work.
    keep[base.kind == SCHOOL] = False
    work_rows = np.flatnonzero(base.kind == WORK)
    drop_work = rng.random(work_rows.size) >= WEEKEND_WORK_RATE
    keep[work_rows[drop_work]] = False

    table = ActivityTable(
        person=base.person[keep],
        kind=base.kind[keep],
        start=base.start[keep],
        duration=base.duration[keep],
    )

    if sunday:
        # Additional Sunday-morning religion rows.
        attending = rng.random(pop.size) < SUNDAY_RELIGION_RATE
        pids = pop.pid[attending]
        extra = ActivityTable(
            person=pids,
            kind=np.full(pids.size, RELIGION, dtype=np.int8),
            start=np.full(pids.size, 10 * 60, dtype=np.int32),
            duration=rng.integers(60, 150, pids.size).astype(np.int32),
        )
        person = np.concatenate([table.person, extra.person])
        order = np.argsort(person, kind="stable")
        table = ActivityTable(
            person=person[order],
            kind=np.concatenate([table.kind, extra.kind])[order],
            start=np.concatenate([table.start, extra.start])[order],
            duration=np.concatenate([table.duration,
                                     extra.duration])[order],
        )
    return table


def assign_week(
    pop: Population, rng: np.random.Generator
) -> WeeklyActivities:
    """Build the full week of activity tables.

    Weekdays draw independent realisations of the weekday template (the
    day-to-day variation real sequences have); Saturday and Sunday use the
    weekend template.
    """
    days = []
    for d in range(5):
        days.append(assign_activities(pop, rng))
    days.append(_weekend_table(pop, rng, sunday=False))
    days.append(_weekend_table(pop, rng, sunday=True))
    return WeeklyActivities(tuple(days))
