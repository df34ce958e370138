"""Table V coverage: the system-state values EpiHiper exposes.

Table V lists the read/write surface of the intervention system: the
current time (r), node id / infectivity / susceptibility / healthState /
nodeTrait (rw), edge endpoints and activities (r), edge active / weight /
edgeTrait (rw), and user-defined named variables (rw).  These tests pin
that surface on our engine.
"""

import numpy as np
import pytest

from repro.epihiper import BatchedSimulation, Intervention, Simulation


@pytest.fixture()
def sim(va_assets, covid_model):
    pop, net = va_assets
    return Simulation(covid_model, pop, net, seed=1)


def test_system_time_readable(sim):
    assert sim.tick == 0
    engine = BatchedSimulation([sim])
    engine.step()
    assert sim.tick == 1


def test_node_id_readable(sim):
    np.testing.assert_array_equal(sim.pop.pid,
                                  np.arange(sim.pop.size))


def test_node_infectivity_rw(sim):
    sim.node_infectivity[5] = 0.3
    assert sim.node_infectivity[5] == 0.3


def test_node_susceptibility_rw(sim):
    sim.node_susceptibility[:10] = 0.0
    assert (sim.node_susceptibility[:10] == 0).all()


def test_node_health_state_rw(sim, covid_model):
    code = covid_model.code("Recovered")
    sim.enter_state(np.array([3]), np.array([code], dtype=np.int8))
    assert sim.health[3] == code


def test_node_trait_rw(sim):
    sim.node_traits["essential_worker"] = np.zeros(sim.pop.size, bool)
    sim.node_traits["essential_worker"][7] = True
    assert sim.node_traits["essential_worker"][7]


def test_edge_endpoints_and_activities_readable(sim):
    assert sim.net.source.shape == sim.net.target.shape
    assert sim.net.source_activity.shape[0] == sim.net.n_edges
    assert sim.net.target_activity.shape[0] == sim.net.n_edges


def test_edge_active_rw_via_suppressor(sim):
    handle = sim.suppressor.suppress(np.array([0, 1]))
    active = sim.net.active & (sim.suppressor.count == 0)
    assert not active[0] and not active[1]
    sim.suppressor.release(handle)
    assert (sim.net.active & (sim.suppressor.count == 0))[0]


def test_edge_weight_rw(sim):
    sim.edge_weight[0] = 0.25
    assert sim.edge_weight[0] == 0.25
    # The network's original weights are untouched (engine copies).
    assert sim.net.weight[0] == 1.0


def test_edge_trait_rw(sim):
    sim.edge_traits["masked"] = np.zeros(sim.net.n_edges, bool)
    sim.edge_traits["masked"][2] = True
    assert sim.edge_traits["masked"][2]


def test_named_variables_rw(sim):
    sim.variables["alert_level"] = 2.0
    assert sim.variables["alert_level"] == 2.0


def test_variable_trigger_fires(sim):
    fired = []
    sim.interventions.append(Intervention(
        "alarm",
        trigger=lambda s: s.variables.get("alert_level", 0.0) >= 3.0,
        action=lambda s: fired.append(s.tick),
        once=True,
    ))
    engine = BatchedSimulation([sim])
    engine.step()
    assert not fired
    sim.variables["alert_level"] = 5.0
    engine.step()
    assert fired == [1]


def test_symptomatic_count_trigger(sim, covid_model):
    def trig(s):
        return s.current_state_counts()[s.model.is_symptomatic].sum() >= 1

    assert not trig(sim)
    code = covid_model.code("Symptomatic")
    sim.enter_state(np.array([0]), np.array([code], dtype=np.int8))
    assert trig(sim)
