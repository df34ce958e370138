"""Simulation-engine tests: conservation, determinism, result shapes."""

import numpy as np
import pytest

from repro.epihiper import Simulation, build_covid_model, uniform_seeds


def make_sim(va_assets, covid_model, seed=11):
    pop, net = va_assets
    return Simulation(covid_model, pop, net, seed=seed)


def test_initial_state_all_susceptible(va_assets, covid_model):
    sim = make_sim(va_assets, covid_model)
    counts = sim.current_state_counts()
    assert counts[covid_model.code("Susceptible")] == va_assets[0].size


def test_seeding_moves_to_exposed(va_assets, covid_model):
    sim = make_sim(va_assets, covid_model)
    seeds = uniform_seeds(va_assets[0], 10, sim.rng)
    sim.seed_infections(seeds)
    counts = sim.current_state_counts()
    assert counts[covid_model.code("Exposed")] == 10


def test_population_conserved_every_tick(va_run, covid_model):
    pop, _net, result = va_run
    totals = result.state_counts.sum(axis=1)
    assert (totals == pop.size).all()


def test_state_counts_shape(va_run, covid_model):
    _pop, _net, result = va_run
    assert result.state_counts.shape == (91, covid_model.n_states)
    assert result.n_days == 90


def test_epidemic_progresses(va_run, covid_model):
    _pop, _net, result = va_run
    assert result.attack_rate(covid_model) > 0.02
    recovered = result.state_counts[:, covid_model.code("Recovered")]
    assert (np.diff(recovered) >= 0).all()  # Recovered is absorbing


def test_deaths_monotone(va_run, covid_model):
    _pop, _net, result = va_run
    deaths = result.state_counts[:, covid_model.code("Death")]
    assert (np.diff(deaths) >= 0).all()


def test_log_ticks_in_range(va_run):
    _pop, _net, result = va_run
    assert result.log.tick.min() >= 0
    assert result.log.tick.max() <= 90


def test_deterministic_given_seed(va_assets, covid_model):
    results = []
    for _ in range(2):
        sim = make_sim(va_assets, covid_model, seed=99)
        sim.seed_infections(uniform_seeds(va_assets[0], 15, sim.rng))
        results.append(sim.run(40))
    a, b = results
    np.testing.assert_array_equal(a.state_counts, b.state_counts)
    np.testing.assert_array_equal(a.log.pid, b.log.pid)


def test_different_seeds_diverge(va_assets, covid_model):
    outs = []
    for seed in (1, 2):
        sim = make_sim(va_assets, covid_model, seed=seed)
        sim.seed_infections(uniform_seeds(va_assets[0], 15, sim.rng))
        outs.append(sim.run(40).state_counts)
    assert not np.array_equal(*outs)


def test_counters_populated(va_run):
    _pop, _net, result = va_run
    c = result.metrics.snapshot(prefix="engine.", strip=True)
    assert c["contacts_evaluated"] > 0
    assert c["transitions"] >= c["transmissions"] > 0


def test_memory_series_monotone_nondecreasing(va_run):
    _pop, _net, result = va_run
    assert result.memory_series.shape == (91,)
    assert (np.diff(result.memory_series) >= 0).all()


def test_network_population_mismatch_rejected(va_assets, vt_assets,
                                              covid_model):
    va_pop, _ = va_assets
    _, vt_net = vt_assets
    with pytest.raises(ValueError, match="disagree"):
        Simulation(covid_model, va_pop, vt_net)


def test_negative_days_rejected(va_assets, covid_model):
    sim = make_sim(va_assets, covid_model)
    with pytest.raises(ValueError):
        sim.run(-1)


def test_zero_day_run(va_assets, covid_model):
    sim = make_sim(va_assets, covid_model)
    sim.seed_infections(uniform_seeds(va_assets[0], 5, sim.rng))
    result = sim.run(0)
    assert result.n_days == 0
    assert result.state_counts.shape[0] == 1


def test_no_seeds_no_epidemic(va_assets, covid_model):
    sim = make_sim(va_assets, covid_model)
    result = sim.run(20)
    assert result.attack_rate(covid_model) == 0.0
    assert result.log.size == 0


def test_dendogram_seeds_have_no_infector(va_run, covid_model):
    _pop, _net, result = va_run
    exposed = covid_model.code("Exposed")
    tick0 = result.log.tick == 0
    seeds = (result.log.state == exposed) & tick0
    assert (result.log.infector[seeds] == -1).all()
