"""Frontier/dense kernel equivalence: bit-identical, not statistical.

The frontier kernel gathers only edges incident to the infectious set and
sorts them into dense enumeration order, so for the same RNG stream it must
reproduce the dense kernel's exposures exactly — pids, exposed codes,
infectors, and candidate counts, over any network, health configuration,
and base edge activity.  The engine picks
the kernel itself (:func:`auto_backend`); whole runs force one through
the ``force_kernel`` fixture, whose own tests close this file.
"""

import numpy as np
import pytest

from repro.core.parallel import InstanceSpec, run_instances
from repro.epihiper import Simulation, TransmissionBackend, uniform_seeds
from repro.epihiper.disease import (
    DiseaseModel,
    Progression,
    Transmission,
    uniform,
)
from repro.epihiper.interventions import IncidentEdges
from repro.epihiper.npi import make_sh, make_vhi
from repro.epihiper.states import FixedDwell, HealthState
from repro.epihiper import transmission
from repro.epihiper.transmission import (
    FRONTIER_DENSE_CROSSOVER,
    CandidateScan,
    auto_backend,
)

from ..conftest import KERNELS, one_lane_tick

pytestmark = pytest.mark.fast


def make_model(tau=2.0):
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


def random_network(n_nodes, n_edges, rng):
    """Random canonical (source < target) edge list with durations/weights."""
    src = rng.integers(0, n_nodes - 1, size=n_edges, dtype=np.int64)
    tgt = rng.integers(1, n_nodes, size=n_edges, dtype=np.int64)
    lo = np.minimum(src, tgt)
    hi = np.maximum(src, tgt)
    bump = lo == hi  # avoid self-loops
    hi = np.where(bump, lo + 1, hi)
    dur = rng.integers(5, 1440, size=n_edges).astype(np.float64)
    w = rng.uniform(0.1, 2.0, size=n_edges)
    return lo, hi, dur, w


def random_health(n_nodes, prevalence, rng):
    health = np.zeros(n_nodes, dtype=np.int8)
    n_inf = int(round(prevalence * n_nodes))
    if n_inf:
        health[rng.choice(n_nodes, size=n_inf, replace=False)] = 1
    return health


def assert_events_identical(a, b):
    assert a.n_candidates == b.n_candidates
    for field in ("pids", "exposed_codes", "infectors"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype, field
        np.testing.assert_array_equal(x, y, err_msg=field)


def run_backend(kernel, model, health, src, tgt, dur, w, active,
                node_sus, node_inf, seed):
    return one_lane_tick(kernel, model, health, src, tgt, dur, seed=seed,
                         sus=node_sus, inf=node_inf, active=active,
                         weight=w)


@pytest.mark.parametrize("n_nodes,n_edges", [(40, 120), (300, 1500),
                                             (1000, 8000)])
@pytest.mark.parametrize("prevalence", [0.0, 0.01, 0.1, 0.6])
@pytest.mark.parametrize("active_frac", [1.0, 0.7])
def test_frontier_matches_dense_bitwise(n_nodes, n_edges, prevalence,
                                        active_frac):
    for case_seed in (0, 1, 2):
        setup = np.random.default_rng((case_seed, n_nodes, int(100
                                                               * prevalence)))
        src, tgt, dur, w = random_network(n_nodes, n_edges, setup)
        health = random_health(n_nodes, prevalence, setup)
        active = setup.random(n_edges) < active_frac
        node_sus = setup.uniform(0.0, 1.5, n_nodes)
        node_inf = setup.uniform(0.0, 1.5, n_nodes)
        model = make_model()

        args = (model, health, src, tgt, dur, w, active,
                node_sus, node_inf, 7 + case_seed)
        dense = run_backend(TransmissionBackend.DENSE, *args)
        frontier = run_backend(TransmissionBackend.FRONTIER, *args)
        assert_events_identical(dense, frontier)


def test_both_infectious_endpoints_edge_counted_once():
    # Edge (0, 1) with both endpoints infectious appears twice in the CSR
    # gather; the unique pass must not double-evaluate it.
    model = make_model(tau=50.0)
    src = np.array([0, 1], dtype=np.int64)
    tgt = np.array([1, 2], dtype=np.int64)
    dur = np.array([1440.0, 1440.0])
    w = np.ones(2)
    active = np.ones(2, bool)
    health = np.array([1, 1, 0], dtype=np.int8)
    ones = np.ones(3)
    dense = run_backend(TransmissionBackend.DENSE, model, health, src, tgt,
                        dur, w, active, ones, ones, 5)
    frontier = run_backend(TransmissionBackend.FRONTIER, model, health, src,
                           tgt, dur, w, active, ones, ones, 5)
    assert_events_identical(dense, frontier)
    assert dense.n_candidates == 1  # only 1 -> 2 is a candidate


def test_backend_coercion():
    """A kernel's string form names it; the rule's two answers are the
    only kernels, so ``auto`` is no member."""
    assert TransmissionBackend("dense") is TransmissionBackend.DENSE
    assert TransmissionBackend("frontier") is TransmissionBackend.FRONTIER
    assert [k.value for k in TransmissionBackend] == ["dense", "frontier"]
    with pytest.raises(ValueError):
        TransmissionBackend("auto")


def test_auto_switches_backend_as_prevalence_grows():
    setup = np.random.default_rng(11)
    n_nodes, n_edges = 2000, 12000
    src, tgt, _dur, _w = random_network(n_nodes, n_edges, setup)
    inc = IncidentEdges(src, tgt, n_nodes)

    few = np.arange(n_nodes) < 5
    many = np.ones(n_nodes, dtype=bool)
    assert auto_backend(few @ inc.degrees, n_edges) is \
        TransmissionBackend.FRONTIER
    assert auto_backend(many @ inc.degrees, n_edges) is \
        TransmissionBackend.DENSE
    # The crossover sits exactly at the documented gathered-slot fraction.
    assert inc.degrees[np.flatnonzero(few)].sum() <= \
        FRONTIER_DENSE_CROSSOVER * n_edges
    assert inc.degrees[np.flatnonzero(many)].sum() > \
        FRONTIER_DENSE_CROSSOVER * n_edges


def test_simulation_trajectories_identical_across_backends(vt_assets,
                                                           covid_model,
                                                           force_kernel):
    """Whole-run equivalence on a real region, with suppressing NPIs."""
    pop, net = vt_assets
    results = {}
    for kernel in KERNELS:
        sim = Simulation(
            covid_model, pop, net, seed=99,
            interventions=[make_vhi(0.6), make_sh(0.5, start=5, end=25)])
        sim.seed_infections(uniform_seeds(pop, 10, sim.rng))
        with force_kernel(kernel):
            results[kernel] = sim.run(40)
    base = results["dense"]
    for kernel in ("frontier", "auto"):
        other = results[kernel]
        np.testing.assert_array_equal(base.state_counts, other.state_counts)
        np.testing.assert_array_equal(base.memory_series,
                                      other.memory_series)
        np.testing.assert_array_equal(base.log.pid, other.log.pid)
        np.testing.assert_array_equal(base.log.state, other.log.state)
        np.testing.assert_array_equal(base.log.infector, other.log.infector)
        for name in ("engine.contacts_evaluated", "engine.transmissions"):
            assert base.metrics.value(name) == other.metrics.value(name)


def test_incremental_accounting_matches_rescan(vt_assets, covid_model):
    """The O(1) memory-estimate terms equal a from-scratch recount."""
    pop, net = vt_assets
    sim = Simulation(covid_model, pop, net, seed=3,
                     interventions=[make_vhi(0.7)])
    sim.seed_infections(uniform_seeds(pop, 10, sim.rng))
    sim.run(30)
    assert sim.suppressor.n_suppressed == int(
        (sim.suppressor.count > 0).sum())
    assert sim.sched.n_pending == int((sim.sched.due > 0).sum())


def test_phase_timing_counters_populated(vt_assets, covid_model):
    pop, net = vt_assets
    sim = Simulation(covid_model, pop, net, seed=3)
    sim.seed_infections(uniform_seeds(pop, 10, sim.rng))
    result = sim.run(10)
    for key in ("interventions_s", "transmission_s", "progression_s"):
        assert result.metrics.value(f"engine.{key}") >= 0.0
    assert result.metrics.value("engine.transmission_s") > 0.0


# -- the force_kernel fixture ---------------------------------------------------


def _the_other_kernel_ran(*args, **kwargs):
    raise AssertionError("a tick ran the kernel that was not forced")


def _force_specs():
    """Two regions (two groups, so a pooled fan-out uses the pool), a
    K=2 group among them."""
    return [InstanceSpec(region, {"TAU": 0.45}, 30, 1e-3, seed,
                         label=f"force-{region}-{seed}", asset_seed=0)
            for region, seed in (("VT", 1), ("VT", 2), ("WY", 3))]


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
@pytest.mark.parametrize("kernel,other", [("dense", "_frontier"),
                                          ("frontier", "_dense")])
def test_force_kernel_runs_only_that_kernel(monkeypatch, force_kernel,
                                            kernel, other, pooled):
    """Forced dense never calls the frontier gather and forced frontier
    never calls the dense scan, in process and in pool workers, and the
    outcomes equal the rule's."""
    specs = _force_specs()
    want = run_instances(specs, parallel=False)
    monkeypatch.setattr(CandidateScan, other, _the_other_kernel_ran)
    with force_kernel(kernel):
        got = run_instances(specs, parallel=pooled, max_workers=2)
    for a, b in zip(want, got):
        np.testing.assert_array_equal(a.confirmed, b.confirmed)
        assert a.transitions == b.transitions
    assert transmission.FRONTIER_DENSE_CROSSOVER == FRONTIER_DENSE_CROSSOVER


@pytest.mark.parametrize("kernel,broken", [("dense", "_dense"),
                                           ("frontier", "_frontier")])
def test_force_kernel_runs_the_forced_kernel(monkeypatch, force_kernel,
                                             kernel, broken):
    """The negative control: the forced kernel is the one that runs."""
    monkeypatch.setattr(CandidateScan, broken, _the_other_kernel_ran)
    with force_kernel(kernel), pytest.raises(AssertionError,
                                             match="not forced"):
        run_instances(_force_specs()[:1], parallel=False)
    assert transmission.FRONTIER_DENSE_CROSSOVER == FRONTIER_DENSE_CROSSOVER
