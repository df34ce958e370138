"""Property-based tests of the simulation engine on random inputs.

Hypothesis generates small random populations and contact networks; the
engine's core invariants must hold for all of them: population
conservation, monotone absorbing states, dendograms partitioning the
infected set, and determinism in the seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.epihiper import Simulation, build_covid_model
from repro.epihiper.output import dendogram_sizes
from repro.synthpop.contacts import ContactNetwork
from repro.synthpop.persons import Population

MODEL = build_covid_model(transmissibility=0.5)


def random_population(n, rng) -> Population:
    ages = rng.integers(0, 95, n).astype(np.int16)
    groups = np.digitize(ages, [5, 18, 50, 65]).astype(np.int8)
    hid = np.sort(rng.integers(0, max(1, n // 3), n)).astype(np.int64)
    return Population(
        region_code="XX",
        pid=np.arange(n, dtype=np.int64),
        hid=hid,
        age=ages,
        age_group=groups,
        gender=rng.integers(0, 2, n).astype(np.int8),
        county=np.full(n, 1001, dtype=np.int32),
        home_lat=np.zeros(n, dtype=np.float32),
        home_lon=np.zeros(n, dtype=np.float32),
    )


def random_network(n, m, rng) -> ContactNetwork:
    src = rng.integers(0, n - 1, m)
    tgt = rng.integers(src + 1, n)
    return ContactNetwork(
        region_code="XX",
        n_nodes=n,
        source=src.astype(np.int64),
        target=tgt.astype(np.int64),
        start=np.zeros(m, np.int32),
        duration=rng.integers(30, 600, m).astype(np.int32),
        source_activity=rng.integers(0, 7, m).astype(np.int8),
        target_activity=rng.integers(0, 7, m).astype(np.int8),
        weight=np.ones(m, np.float32),
    )


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(5, 120),
    edge_factor=st.integers(1, 5),
    n_seeds=st.integers(1, 5),
    days=st.integers(1, 40),
    seed=st.integers(0, 2**31),
)
def test_property_engine_invariants(n, edge_factor, n_seeds, days, seed):
    rng = np.random.default_rng(seed)
    pop = random_population(n, rng)
    net = random_network(n, n * edge_factor, rng)
    sim = Simulation(MODEL, pop, net, seed=seed)
    seeds = rng.choice(n, size=min(n_seeds, n), replace=False)
    sim.seed_infections(seeds)
    result = sim.run(days)

    # 1. Conservation: the census sums to the population every tick.
    assert (result.state_counts.sum(axis=1) == n).all()

    # 2. Absorbing states never shrink.
    for name in ("Recovered", "Death"):
        series = result.state_counts[:, MODEL.code(name)]
        assert (np.diff(series) >= 0).all()

    # 3. Dendograms partition the ever-exposed set.
    exposed = MODEL.code("Exposed")
    sizes = dendogram_sizes(result.log, exposed)
    ever = np.unique(result.log.pid[result.log.state == exposed]).size
    assert sum(sizes.values()) == ever

    # 4. Every transmission's infector was infectious-capable (it appears
    # in the log before its victim, or is a seed).
    rows = result.log.transmissions()
    logged = set(result.log.pid.tolist())
    for infector in result.log.infector[rows]:
        assert int(infector) in logged

    # 5. Ticks are within range and non-negative.
    if result.log.size:
        assert result.log.tick.min() >= 0
        assert result.log.tick.max() <= days


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(10, 80),
    seed=st.integers(0, 2**31),
)
def test_property_determinism(n, seed):
    rng = np.random.default_rng(seed)
    pop = random_population(n, rng)
    net = random_network(n, n * 3, rng)
    outs = []
    for _ in range(2):
        sim = Simulation(MODEL, pop, net, seed=seed)
        sim.seed_infections(np.arange(min(3, n)))
        outs.append(sim.run(20))
    np.testing.assert_array_equal(outs[0].state_counts,
                                  outs[1].state_counts)
    np.testing.assert_array_equal(outs[0].log.pid, outs[1].log.pid)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_property_isolation_blocks_all_transmission(seed):
    """With every edge suppressed, seeds progress but nobody new is
    infected."""
    rng = np.random.default_rng(seed)
    pop = random_population(40, rng)
    net = random_network(40, 120, rng)
    sim = Simulation(MODEL, pop, net, seed=seed)
    sim.suppressor.suppress(np.arange(net.n_edges, dtype=np.int64))
    sim.seed_infections(np.array([0, 1]))
    result = sim.run(30)
    assert result.metrics.value("engine.transmissions") == 0
    exposed_ever = np.unique(
        result.log.pid[result.log.state == MODEL.code("Exposed")])
    assert exposed_ever.size == 2
