"""Activity-sequence assignment (Appendix C, activity model).

Each synthetic person receives a sequence of timed activities for a "typical
day" (the paper builds week-long sequences from NHTS/ATUS/MTUS data and then
projects to ``G_Wednesday``; we generate the Wednesday slice directly).  An
activity has a type, a start time, and a duration.  Children attend school,
college-age persons may attend college, working-age adults work with an
employment probability, and everyone mixes in shopping / other / religion
activities with small probabilities.

Times are minutes since midnight; durations are minutes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .persons import Population

#: Activity types; order defines the integer encoding used everywhere.
#: These are exactly the paper's edge contexts (Section III): "home, work,
#: shopping, other, school, college, and religion".
ACTIVITY_TYPES: tuple[str, ...] = (
    "home",
    "work",
    "shopping",
    "other",
    "school",
    "college",
    "religion",
)

HOME, WORK, SHOPPING, OTHER, SCHOOL, COLLEGE, RELIGION = range(7)

#: Employment probability for ages 18-64.
EMPLOYMENT_RATE: float = 0.72

#: Probability that an 18-22 year old attends college.
COLLEGE_RATE: float = 0.45

#: Daily participation probabilities for discretionary activities.
SHOPPING_RATE: float = 0.35
OTHER_RATE: float = 0.25
RELIGION_RATE: float = 0.06


@dataclass(slots=True)
class ActivityTable:
    """Columnar table of person-activities for one region-day.

    Parallel arrays; one row per (person, activity) pair, sorted by person.
    """

    person: np.ndarray  #: int64 person id
    kind: np.ndarray  #: int8 index into ACTIVITY_TYPES
    start: np.ndarray  #: int32 minutes after midnight
    duration: np.ndarray  #: int32 minutes

    @property
    def size(self) -> int:
        """Total number of activity rows."""
        return int(self.person.shape[0])


def _jitter(rng: np.random.Generator, center: int, spread: int, n: int) -> np.ndarray:
    """Integer times normally spread around ``center``, clipped to a day."""
    vals = rng.normal(center, spread, size=n)
    return np.clip(vals, 0, 24 * 60 - 1).astype(np.int32)


def assign_activities(
    pop: Population, rng: np.random.Generator
) -> ActivityTable:
    """Build the typical-Wednesday activity table for ``pop``.

    Every person always has an all-day *home* anchor activity; daytime
    activities (school / college / work / discretionary) are layered on top
    based on age and participation rates.

    Returns:
        An :class:`ActivityTable` sorted by person id.
    """
    n = pop.size
    persons: list[np.ndarray] = []
    kinds: list[np.ndarray] = []
    starts: list[np.ndarray] = []
    durs: list[np.ndarray] = []

    def emit(mask: np.ndarray, kind: int, start: np.ndarray, dur: np.ndarray) -> None:
        persons.append(pop.pid[mask])
        kinds.append(np.full(int(mask.sum()), kind, dtype=np.int8))
        starts.append(start)
        durs.append(dur)

    # Home anchor for everyone (overnight presence).
    all_mask = np.ones(n, dtype=bool)
    emit(all_mask, HOME, np.zeros(n, dtype=np.int32),
         np.full(n, 24 * 60, dtype=np.int32))

    age = pop.age
    u = rng.random(n)

    school_mask = (age >= 5) & (age <= 17)
    ns = int(school_mask.sum())
    emit(school_mask, SCHOOL, _jitter(rng, 8 * 60, 20, ns),
         rng.integers(6 * 60, 8 * 60, ns).astype(np.int32))

    college_mask = (age >= 18) & (age <= 22) & (u < COLLEGE_RATE)
    nc = int(college_mask.sum())
    emit(college_mask, COLLEGE, _jitter(rng, 9 * 60, 45, nc),
         rng.integers(3 * 60, 7 * 60, nc).astype(np.int32))

    work_mask = (age >= 18) & (age <= 64) & ~college_mask & (
        rng.random(n) < EMPLOYMENT_RATE
    )
    nw = int(work_mask.sum())
    emit(work_mask, WORK, _jitter(rng, 8 * 60 + 30, 60, nw),
         rng.integers(7 * 60, 10 * 60, nw).astype(np.int32))

    for kind, rate, center, dur_lo, dur_hi in (
        (SHOPPING, SHOPPING_RATE, 17 * 60, 20, 90),
        (OTHER, OTHER_RATE, 18 * 60, 30, 150),
        (RELIGION, RELIGION_RATE, 10 * 60, 60, 150),
    ):
        mask = rng.random(n) < rate
        m = int(mask.sum())
        emit(mask, kind, _jitter(rng, center, 90, m),
             rng.integers(dur_lo, dur_hi, m).astype(np.int32))

    person = np.concatenate(persons)
    order = np.argsort(person, kind="stable")
    return ActivityTable(
        person=person[order],
        kind=np.concatenate(kinds)[order],
        start=np.concatenate(starts)[order],
        duration=np.concatenate(durs)[order],
    )
