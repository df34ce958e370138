"""Progression scheduling tests."""

import numpy as np
import pytest

from repro.epihiper.disease import (
    DiseaseModel,
    Progression,
    Transmission,
    uniform,
)
from repro.epihiper.progression import (
    ProgressionState,
    progression_sweep,
    schedule_entries,
)
from repro.epihiper.states import FixedDwell, HealthState


def progression_step(sched, tick):
    """One lane through the sweep run during ``tick``: the fired
    ``(pids, codes)``, with ``n_pending`` kept as the driver keeps it."""
    _sizes, pids, codes, n_hit = progression_sweep(
        sched.due, sched.next_state, np.array([0, sched.due.size]), tick + 1)
    sched.n_pending -= int(n_hit[0])
    return pids, codes


@pytest.fixture()
def chain_model():
    states = [
        HealthState("S", susceptibility=1.0),
        HealthState("A", infectivity=1.0),
        HealthState("B"),
        HealthState("C"),
    ]
    progressions = [
        Progression("A", "B", uniform(0.3), FixedDwell(2)),
        Progression("A", "C", uniform(0.7), FixedDwell(4)),
        Progression("B", "C", uniform(1.0), FixedDwell(1)),
    ]
    return DiseaseModel("chain", states, progressions,
                        [Transmission("S", "A", "A")])


def test_terminal_entry_clears_schedule(chain_model):
    sched = ProgressionState.empty(4)
    sched.due[:] = 5
    sched.next_state[:] = 1
    pids = np.array([0, 1])
    codes = np.full(2, chain_model.code("C"), dtype=np.int8)
    ages = np.zeros(4, dtype=np.int8)
    schedule_entries(chain_model, sched, pids, codes, ages,
                     np.random.default_rng(0), 0)
    assert (sched.due[[0, 1]] == 0).all()
    assert (sched.next_state[[0, 1]] == -1).all()


def test_branching_respects_probabilities(chain_model):
    n = 30_000
    sched = ProgressionState.empty(n)
    pids = np.arange(n)
    codes = np.full(n, chain_model.code("A"), dtype=np.int8)
    ages = np.zeros(n, dtype=np.int8)
    schedule_entries(chain_model, sched, pids, codes, ages,
                     np.random.default_rng(1), 10)
    to_b = (sched.next_state == chain_model.code("B")).mean()
    assert abs(to_b - 0.3) < 0.01
    # Dwell follows the chosen edge's distribution, due that many ticks
    # after the schedule base.
    b_mask = sched.next_state == chain_model.code("B")
    assert (sched.remaining(10)[b_mask] == 2).all()
    assert (sched.remaining(10)[~b_mask] == 4).all()
    assert (sched.due[b_mask] == 12).all()


def test_progression_fires_after_dwell(chain_model):
    sched = ProgressionState.empty(3)
    pids = np.array([0])
    codes = np.full(1, chain_model.code("B"), dtype=np.int8)
    ages = np.zeros(3, dtype=np.int8)
    schedule_entries(chain_model, sched, pids, codes, ages,
                     np.random.default_rng(2), 0)
    assert sched.remaining(0)[0] == 1
    fired, dest = progression_step(sched, 0)
    assert fired.tolist() == [0]
    assert dest.tolist() == [chain_model.code("C")]
    # Nothing left scheduled.
    assert sched.due[0] == 0 and sched.n_pending == 0
    fired2, _ = progression_step(sched, 1)
    assert fired2.size == 0


def test_multi_tick_countdown(chain_model):
    sched = ProgressionState.empty(1)
    sched.schedule_remaining(np.array([3]), 0)
    sched.next_state[0] = 2
    for tick in range(2):
        fired, _ = progression_step(sched, tick)
        assert fired.size == 0
        assert sched.remaining(tick + 1)[0] == 3 - (tick + 1)
    fired, dest = progression_step(sched, 2)
    assert fired.tolist() == [0]
    assert dest.tolist() == [2]


def test_empty_entries_noop(chain_model):
    sched = ProgressionState.empty(5)
    schedule_entries(chain_model, sched, np.empty(0, np.int64),
                     np.empty(0, np.int8), np.zeros(5, np.int8),
                     np.random.default_rng(0), 0)
    assert (sched.due == 0).all()


def test_age_stratified_branching():
    """Different age groups can take different branches."""
    states = [
        HealthState("S", susceptibility=1.0),
        HealthState("I", infectivity=1.0),
        HealthState("Mild"),
        HealthState("Severe"),
    ]
    progressions = [
        Progression("I", "Mild", (1.0, 1.0, 1.0, 0.0, 0.0), FixedDwell(1)),
        Progression("I", "Severe", (0.0, 0.0, 0.0, 1.0, 1.0), FixedDwell(1)),
    ]
    model = DiseaseModel("aged", states, progressions,
                         [Transmission("S", "I", "I")])
    n = 100
    sched = ProgressionState.empty(n)
    ages = np.zeros(n, dtype=np.int8)
    ages[50:] = 4  # 65+
    schedule_entries(model, sched, np.arange(n),
                     np.full(n, model.code("I"), np.int8), ages,
                     np.random.default_rng(3), 0)
    assert (sched.next_state[:50] == model.code("Mild")).all()
    assert (sched.next_state[50:] == model.code("Severe")).all()
