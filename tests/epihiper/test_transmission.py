"""Transmission-kernel (Eq. 1) tests."""

import numpy as np
import pytest

from repro.epihiper.disease import (
    DiseaseModel,
    Progression,
    Transmission,
    uniform,
)
from repro.epihiper.states import FixedDwell, HealthState

from ..conftest import one_lane_tick


def make_model(tau=1.0):
    states = [
        HealthState("S", susceptibility=1.0),
        HealthState("I", infectivity=1.0),
        HealthState("R"),
    ]
    return DiseaseModel(
        "sir", states,
        [Progression("I", "R", uniform(1.0), FixedDwell(3))],
        [Transmission("S", "I", "I")],
        transmissibility=tau,
    )


def star_network(n_leaves, duration_min=1440):
    """Node 0 is the hub; leaves 1..n."""
    src = np.zeros(n_leaves, dtype=np.int64)
    tgt = np.arange(1, n_leaves + 1, dtype=np.int64)
    return src, tgt, np.full(n_leaves, duration_min, np.float64)


def run_step(model, health, src, tgt, dur, seed=0, sus=None, inf=None,
             active=None, weight=None):
    return one_lane_tick("dense", model, health, src, tgt, dur, seed=seed,
                         sus=sus, inf=inf, active=active, weight=weight)


def test_no_infectious_no_events():
    model = make_model()
    src, tgt, dur = star_network(5)
    health = np.zeros(6, dtype=np.int8)  # everyone susceptible
    ev = run_step(model, health, src, tgt, dur)
    assert ev.pids.size == 0
    assert ev.n_candidates == 0


def test_hub_infects_leaves_with_full_contact():
    model = make_model(tau=50.0)  # overwhelming rate -> p ~ 1
    src, tgt, dur = star_network(50)
    health = np.zeros(51, dtype=np.int8)
    health[0] = 1  # hub infectious
    ev = run_step(model, health, src, tgt, dur)
    assert ev.pids.size == 50
    assert (ev.infectors == 0).all()
    assert (ev.exposed_codes == model.code("I")).all()


def test_zero_transmissibility_blocks_all():
    model = make_model(tau=0.0)
    src, tgt, dur = star_network(50)
    health = np.zeros(51, dtype=np.int8)
    health[0] = 1
    ev = run_step(model, health, src, tgt, dur)
    assert ev.pids.size == 0
    assert ev.n_candidates == 50


def test_inactive_edges_do_not_transmit():
    model = make_model(tau=50.0)
    src, tgt, dur = star_network(20)
    health = np.zeros(21, dtype=np.int8)
    health[0] = 1
    active = np.zeros(20, dtype=bool)
    active[:5] = True
    ev = run_step(model, health, src, tgt, dur, active=active)
    assert set(ev.pids.tolist()) <= set(range(1, 6))


def test_node_susceptibility_scaling():
    model = make_model(tau=50.0)
    src, tgt, dur = star_network(30)
    health = np.zeros(31, dtype=np.int8)
    health[0] = 1
    sus = np.ones(31)
    sus[1:16] = 0.0  # first 15 leaves immune via trait
    ev = run_step(model, health, src, tgt, dur, sus=sus)
    assert set(ev.pids.tolist()) <= set(range(16, 31))
    assert ev.pids.size == 15


def test_infection_probability_monotone_in_duration():
    model = make_model(tau=1.0)
    n = 2000
    rates = []
    for dur_min in (60.0, 720.0, 1440.0):
        src, tgt, dur = star_network(n, duration_min=dur_min)
        # Many independent hubs: pair i -> (2i, 2i+1) instead of a star so
        # each contact is independent.
        src = np.arange(0, 2 * n, 2, dtype=np.int64)
        tgt = np.arange(1, 2 * n, 2, dtype=np.int64)
        health = np.zeros(2 * n, dtype=np.int8)
        health[src] = 1
        ev = run_step(model, health, src, tgt,
                      np.full(n, dur_min, np.float64), seed=3)
        rates.append(ev.pids.size / n)
    assert rates[0] < rates[1] < rates[2]


def test_both_edge_directions_work():
    model = make_model(tau=50.0)
    # Edge (0, 1) with 1 infectious: transmission must flow 1 -> 0.
    src = np.array([0], dtype=np.int64)
    tgt = np.array([1], dtype=np.int64)
    health = np.zeros(2, dtype=np.int8)
    health[1] = 1
    ev = run_step(model, health, src, tgt, np.array([1440.0]))
    assert ev.pids.tolist() == [0]
    assert ev.infectors.tolist() == [1]


def test_duplicate_exposures_deduplicated():
    model = make_model(tau=50.0)
    # Node 2 touched by two infectious nodes 0 and 1.
    src = np.array([0, 1], dtype=np.int64)
    tgt = np.array([2, 2], dtype=np.int64)
    health = np.array([1, 1, 0], dtype=np.int8)
    ev = run_step(model, health, src, tgt, np.array([1440.0, 1440.0]))
    assert ev.pids.tolist() == [2]
    assert ev.infectors[0] in (0, 1)


def test_attribution_roughly_uniform():
    model = make_model(tau=50.0)
    src = np.array([0, 1], dtype=np.int64)
    tgt = np.array([2, 2], dtype=np.int64)
    health = np.array([1, 1, 0], dtype=np.int8)
    hits = []
    for seed in range(300):
        ev = run_step(model, health, src, tgt,
                      np.array([1440.0, 1440.0]), seed=seed)
        hits.append(int(ev.infectors[0]))
    frac0 = hits.count(0) / len(hits)
    assert 0.35 < frac0 < 0.65
