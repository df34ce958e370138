"""Named NPI behaviour tests (VHI, SC, SH, RO, TA, PS, D1CT/D2CT)."""

import numpy as np
import pytest

from repro.epihiper import (
    BatchedSimulation,
    Simulation,
    build_covid_model,
    uniform_seeds,
)
from repro.epihiper import npi
from repro.epihiper.npi import (
    make_contact_tracing,
    make_ps,
    make_ro,
    make_sc,
    make_sh,
    make_ta,
    make_vhi,
    scenario_interventions,
)
from repro.synthpop.activities import COLLEGE, SCHOOL


def active_edges(sim):
    """The lane's effective edge activity: its network's base flag and
    no live suppression (what the transmission kernels read)."""
    return sim.net.active & (sim.suppressor.count == 0)


def run_sim(assets, model, interventions, days=60, seed=5, n_seeds=20):
    pop, net = assets
    sim = Simulation(model, pop, net, seed=seed,
                     interventions=interventions)
    sim.seed_infections(uniform_seeds(pop, n_seeds, sim.rng))
    return sim, sim.run(days)


def test_sc_disables_school_edges(va_assets, covid_model):
    pop, net = va_assets
    sim = Simulation(covid_model, pop, net, seed=1,
                     interventions=[make_sc(start=0)])
    engine = BatchedSimulation([sim])
    engine.step()
    active = active_edges(sim)
    school = (np.isin(net.source_activity, (SCHOOL, COLLEGE))
              | np.isin(net.target_activity, (SCHOOL, COLLEGE)))
    assert not active[school].any()
    assert active[~school].all()


def test_sh_reduces_attack_rate(va_assets, covid_model):
    _sim, baseline = run_sim(va_assets, covid_model, [], days=80)
    _sim2, locked = run_sim(
        va_assets, covid_model, [make_sh(0.9, start=5)], days=80)
    assert locked.attack_rate(covid_model) < baseline.attack_rate(covid_model)


def test_sh_zero_compliance_is_noop(va_assets, covid_model):
    _s1, a = run_sim(va_assets, covid_model, [], days=40)
    _s2, b = run_sim(va_assets, covid_model, [make_sh(0.0, start=5)],
                     days=40)
    assert a.attack_rate(covid_model) == b.attack_rate(covid_model)


def test_sh_ends_and_releases(va_assets, covid_model):
    pop, net = va_assets
    sim = Simulation(covid_model, pop, net, seed=1,
                     interventions=[make_sh(1.0, start=0, end=3)])
    engine = BatchedSimulation([sim])
    engine.step()
    assert not active_edges(sim).all()
    for _ in range(4):
        engine.step()
    assert active_edges(sim).all()


def test_vhi_isolates_symptomatic(va_assets, covid_model):
    sim, result = run_sim(va_assets, covid_model, [make_vhi(1.0)], days=60)
    # Some edges must have been suppressed at some point.
    assert sim.suppressor.total_operations > 0


def test_ro_validates_level():
    with pytest.raises(ValueError):
        make_ro(1.3, start=10)


def test_ro_keeps_fraction_closed(va_assets, covid_model):
    pop, net = va_assets
    sim = Simulation(covid_model, pop, net, seed=1,
                     interventions=[make_ro(0.5, start=0)])
    engine = BatchedSimulation([sim])
    engine.step()
    active = active_edges(sim)
    closed_frac = 1.0 - active.mean()
    assert 0.1 < closed_frac < 0.6


def test_ps_pulses(va_assets, covid_model, monkeypatch):
    monkeypatch.setattr(npi, "PS_DAYS_ON", 2)
    monkeypatch.setattr(npi, "PS_DAYS_OFF", 2)
    pop, net = va_assets
    sim = Simulation(
        covid_model, pop, net, seed=1,
        interventions=[make_ps(1.0, start=0)])
    fractions = []
    engine = BatchedSimulation([sim])
    for _ in range(8):
        engine.step()
        fractions.append(active_edges(sim).mean())
    arr = np.asarray(fractions)
    assert arr.min() < 0.9  # lockdown phases
    assert arr.max() == 1.0  # open phases


def test_contact_tracing_distance_validation():
    with pytest.raises(ValueError):
        from repro.epihiper.npi import make_contact_tracing
        make_contact_tracing(3, 0.5, 0.5)


def test_d2ct_touches_more_edges_than_d1ct(va_assets, covid_model):
    sim1, _ = run_sim(va_assets, covid_model,
                      [make_contact_tracing(1, 1.0, 1.0)],
                      days=50, n_seeds=30)
    sim2, _ = run_sim(va_assets, covid_model,
                      [make_contact_tracing(2, 1.0, 1.0)],
                      days=50, n_seeds=30)
    assert (sim2.metrics.value("engine.intervention_edge_ops")
            > sim1.metrics.value("engine.intervention_edge_ops"))


def test_scenario_presets_exist(va_assets, covid_model):
    for name in ("base", "RO", "TA", "PS", "D1CT", "D2CT"):
        ivs = scenario_interventions(name)
        assert len(ivs) >= 3  # base stack always present
    with pytest.raises(KeyError):
        scenario_interventions("nope")


def test_combined_stack_runs(va_assets, covid_model):
    _sim, result = run_sim(
        va_assets, covid_model, scenario_interventions("D1CT"), days=60)
    totals = result.state_counts.sum(axis=1)
    assert (totals == va_assets[0].size).all()  # conservation under NPIs


def test_ta_isolates_asymptomatic(va_assets, covid_model):
    sim, _ = run_sim(va_assets, covid_model, [make_ta(1.0)], days=60,
                     n_seeds=40)
    assert sim.metrics.value("engine.intervention_edge_ops") > 0


def test_vaccination_protects(va_assets, covid_model):
    from repro.epihiper.npi import make_vaccination

    _s1, baseline = run_sim(va_assets, covid_model, [], days=60, n_seeds=30)
    _s2, vaxed = run_sim(
        va_assets, covid_model,
        [make_vaccination(0.8, 0.9, day=0)], days=60, n_seeds=30)
    assert vaxed.attack_rate(covid_model) < baseline.attack_rate(covid_model)


def test_vaccination_failures_enter_rx_state(va_assets, covid_model):
    from repro.epihiper.npi import make_vaccination

    pop, net = va_assets
    from repro.epihiper import Simulation
    sim = Simulation(covid_model, pop, net, seed=2,
                     interventions=[make_vaccination(1.0, 0.7, day=0)])
    engine = BatchedSimulation([sim])
    engine.step()
    counts = sim.current_state_counts()
    rx = counts[covid_model.code("RX_Failure")]
    # ~30% of the population lands in RX_Failure.
    assert 0.2 * pop.size < rx < 0.4 * pop.size
    # Successes have zero susceptibility.
    protected = (sim.node_susceptibility == 0).sum()
    assert 0.6 * pop.size < protected < 0.8 * pop.size
    assert sim.variables["vaccinated"] == pytest.approx(pop.size)


def test_vaccination_rx_failures_still_susceptible(va_assets, covid_model):
    from repro.epihiper.npi import make_vaccination

    # With 0% efficacy everyone fails into RX_Failure, which transmits
    # exactly like Susceptible (Table IV) - the epidemic still happens.
    _sim, result = run_sim(
        va_assets, covid_model,
        [make_vaccination(1.0, 0.0, day=0)], days=60, n_seeds=30)
    assert result.metrics.value("engine.transmissions") > 0


def test_vaccination_age_targeting(va_assets, covid_model):
    from repro.epihiper import Simulation
    from repro.epihiper.npi import make_vaccination

    pop, net = va_assets
    sim = Simulation(covid_model, pop, net, seed=3,
                     interventions=[make_vaccination(1.0, 1.0, day=0,
                                                     min_age=65)])
    engine = BatchedSimulation([sim])
    engine.step()
    protected = sim.node_susceptibility == 0
    assert protected[pop.age >= 65].all()
    assert not protected[pop.age < 65].any()


def test_vaccination_validates_efficacy():
    from repro.epihiper.npi import make_vaccination

    with pytest.raises(ValueError):
        make_vaccination(0.5, 1.5)


def test_masking_scales_weights(va_assets, covid_model):
    from repro.epihiper import Simulation
    from repro.epihiper.npi import make_masking

    pop, net = va_assets
    sim = Simulation(covid_model, pop, net, seed=4,
                     interventions=[make_masking(1.0, weight_factor=0.4,
                                                 start=0)])
    before = sim.edge_weight.copy()
    engine = BatchedSimulation([sim])
    engine.step()
    home = sim.network.home
    assert np.allclose(sim.edge_weight[~home], before[~home] * 0.4)
    assert np.allclose(sim.edge_weight[home], before[home])


def test_masking_restores_at_end(va_assets, covid_model):
    from repro.epihiper import Simulation
    from repro.epihiper.npi import make_masking

    pop, net = va_assets
    sim = Simulation(covid_model, pop, net, seed=4,
                     interventions=[make_masking(1.0, start=0, end=3)])
    before = sim.edge_weight.copy()
    engine = BatchedSimulation([sim])
    for _ in range(5):
        engine.step()
    np.testing.assert_allclose(sim.edge_weight, before)


def test_masking_reduces_attack(va_assets, covid_model):
    from repro.epihiper.npi import make_masking

    _s1, base = run_sim(va_assets, covid_model, [], days=70, n_seeds=30)
    _s2, masked = run_sim(
        va_assets, covid_model,
        [make_masking(0.9, weight_factor=0.2, start=0)],
        days=70, n_seeds=30)
    assert masked.attack_rate(covid_model) < base.attack_rate(covid_model)


def test_masking_validates_factor():
    from repro.epihiper.npi import make_masking

    with pytest.raises(ValueError):
        make_masking(0.5, weight_factor=-0.1)
