"""One tick core: each phase kernel at K lanes equals K one-lane calls.

The solo :class:`Simulation` and the :class:`BatchedSimulation` call the
same phase functions — the solo engine with its arrays viewed as one lane.
These tests pin the kernels themselves (the two schedulers, the due-tick
sweep, Eq. 1 sampling, the ``auto`` rule) and the bookkeeping both drivers
share (the Figure 10 memory estimate).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.runner import load_region_assets
from repro.epihiper import Simulation, uniform_seeds
from repro.epihiper.batch import BatchedSimulation
from repro.epihiper.covid import (
    EXPOSED,
    RX_FAILURE,
    build_covid_model_with_symp_fraction,
)
from repro.epihiper.interventions import IncidentEdges
from repro.epihiper.npi import make_sc, make_vaccination
from repro.epihiper.progression import (
    ProgressionState,
    SchedTables,
    _schedule_small,
    progression_step,
    progression_sweep,
    schedule_lanes,
)
from repro.epihiper.transmission import (
    FRONTIER_DENSE_CROSSOVER,
    CandidateScan,
    TransmissionBackend,
    lane_transmissions,
    resolve_auto,
    transmission_step,
)
from repro.params import DEFAULT_SEED

pytestmark = pytest.mark.fast


@pytest.fixture(scope="module")
def vt():
    return load_region_assets("VT", 1e-3, DEFAULT_SEED)


# -- shared bookkeeping ---------------------------------------------------------


def _vaccination_lane(assets, model, seed):
    sim = Simulation(model, assets.pop, assets.net, seed=seed,
                     interventions=[make_vaccination(0.5, 0.6, day=5),
                                    make_sc(start=3)])
    sim.seed_infections(uniform_seeds(assets.pop, 8, sim.rng))
    return sim


def test_batched_memory_counts_transitions_entered_by_interventions(vt):
    """Vaccination failures enter RX_Failure from inside the intervention
    phase; a batched lane's memory series must count those transitions
    exactly as its solo run does."""
    model = build_covid_model_with_symp_fraction(0.35, 0.65)
    seeds = (11, 12)
    solo = [_vaccination_lane(vt, model, s).run(30) for s in seeds]
    batch = BatchedSimulation([_vaccination_lane(vt, model, s)
                               for s in seeds])
    for one, lane in zip(solo, batch.run(30)):
        assert (one.log.state == model.code(RX_FAILURE)).any()
        np.testing.assert_array_equal(one.state_counts, lane.state_counts)
        np.testing.assert_array_equal(one.log.pid, lane.log.pid)
        np.testing.assert_array_equal(one.memory_series, lane.memory_series)


# -- scheduling -----------------------------------------------------------------


def _sched_case(models, n_entries, mixed, seed, n_pop=300, tick=5):
    """Per-lane (sched, pids, codes) with some persons already pending."""
    setup = np.random.default_rng(seed)
    model = models[0]
    codes_pool = (np.arange(model.n_states, dtype=np.int8) if mixed
                  else np.array([model.code(EXPOSED)], dtype=np.int8))
    lanes = []
    for _ in models:
        sched = ProgressionState.empty(n_pop)
        pending = setup.random(n_pop) < 0.3
        sched.due[pending] = tick + setup.integers(1, 4, int(pending.sum()))
        sched.next_state[pending] = model.code(EXPOSED)
        sched.n_pending = int(pending.sum())
        pids = setup.choice(n_pop, size=n_entries, replace=False)
        codes = setup.choice(codes_pool, size=n_entries)
        lanes.append((sched, pids.astype(np.int64), codes))
    return lanes


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("mixed", [False, True])
def test_scalar_and_cross_lane_schedulers_agree(k, mixed):
    models = [build_covid_model_with_symp_fraction(0.3, symp)
              for symp in (0.65, 0.5, 0.8)[:k]]
    ages = np.random.default_rng(5).integers(0, 5, 300).astype(np.int8)
    for n_entries in range(1, 65):
        seed = 1000 * n_entries + 10 * k + mixed
        scalar = _sched_case(models, n_entries, mixed, seed)
        scalar_rngs = [np.random.default_rng(seed + i) for i in range(k)]
        for model, (sched, pids, codes), rng in zip(models, scalar,
                                                     scalar_rngs):
            _schedule_small(model, sched, pids, codes, ages, rng, 5)

        lanes = _sched_case(models, n_entries, mixed, seed)
        rngs = [np.random.default_rng(seed + i) for i in range(k)]
        due = np.stack([s.due for s, _, _ in lanes])
        next_state = np.stack([s.next_state for s, _, _ in lanes])
        for i, (sched, _, _) in enumerate(lanes):
            sched.due, sched.next_state = due[i], next_state[i]
        schedule_lanes(
            SchedTables(models), [s for s, _, _ in lanes], due, next_state,
            np.repeat(np.arange(k), n_entries),
            np.concatenate([p for _, p, _ in lanes]),
            np.concatenate([c for _, _, c in lanes]), ages, rngs, 5)

        for i in range(k):
            label = f"k={k} mixed={mixed} n={n_entries} lane {i}"
            want, got = scalar[i][0], lanes[i][0]
            np.testing.assert_array_equal(want.due, got.due, label)
            np.testing.assert_array_equal(want.next_state, got.next_state,
                                          label)
            assert want.n_pending == got.n_pending, label
            assert (scalar_rngs[i].bit_generator.state
                    == rngs[i].bit_generator.state), label


# -- progression sweep ----------------------------------------------------------


def test_progression_sweep_equals_one_lane_calls():
    setup = np.random.default_rng(3)
    k, n = 4, 500
    due = setup.integers(0, 4, (k, n)).astype(np.int32)
    next_state = np.where(setup.random((k, n)) < 0.8,
                          setup.integers(0, 9, (k, n)), -1).astype(np.int8)
    scheds = [ProgressionState(due[i].copy(), next_state[i].copy(),
                               int((due[i] > 0).sum())) for i in range(k)]
    for tick in range(4):
        sizes, pids, codes, n_hit = progression_sweep(due, next_state,
                                                      tick + 1)
        off = 0
        for i, sched in enumerate(scheds):
            before = sched.n_pending
            one_pids, one_codes = progression_step(sched, tick)
            assert before - sched.n_pending == n_hit[i]
            assert sizes[i] == one_pids.size
            np.testing.assert_array_equal(pids[off:off + sizes[i]], one_pids)
            np.testing.assert_array_equal(codes[off:off + sizes[i]],
                                          one_codes)
            off += sizes[i]
            np.testing.assert_array_equal(due[i], sched.due)
            np.testing.assert_array_equal(next_state[i], sched.next_state)


# -- Eq. 1 and the auto rule ------------------------------------------------------


def test_transmission_kernel_at_k_lanes_equals_one_lane_calls(vt):
    """Heterogeneous transmissibility, health, traits, suppressed edges and
    backends in one call: every lane's exposures and stream position equal
    its one-lane call's."""
    net, n = vt.net, vt.pop.size
    model = build_covid_model_with_symp_fraction(0.3, 0.65)
    codes = np.flatnonzero(model.is_infectious | model.is_susceptible)
    setup = np.random.default_rng(8)
    k = 4
    taus = [0.3, 0.9, 2.5, 0.05]
    backends = [TransmissionBackend.DENSE, TransmissionBackend.FRONTIER,
                TransmissionBackend.AUTO, TransmissionBackend.DENSE]
    health = setup.choice(codes, (k, n)).astype(np.int8)
    node_sus = setup.uniform(0.2, 1.5, (k, n))
    node_inf = setup.uniform(0.2, 1.5, (k, n))
    supp = (setup.random((k, net.n_edges)) >= 0.8).astype(np.int16)
    base_active = np.ones(net.n_edges, dtype=bool)
    weight = setup.uniform(0.5, 1.5, (k, net.n_edges))
    duration = net.duration.astype(np.float64)
    incident = IncidentEdges(net.source, net.target, n)
    infectious = model.is_infectious[health]
    workloads = (infectious @ incident.degrees).astype(np.int64)

    rngs = [np.random.default_rng(40 + i) for i in range(k)]
    counts, sizes, pids, codes_out, infectors = lane_transmissions(
        backends, model, taus, rngs, health, infectious, workloads,
        node_sus, node_inf, supp, base_active, weight,
        CandidateScan(net.source, net.target, duration), incident)
    off = 0
    for i in range(k):
        one_rng = np.random.default_rng(40 + i)
        one = lane_transmissions(
            [backends[i]], model, [taus[i]], [one_rng], health[i][None],
            infectious[i][None], workloads[i:i + 1], node_sus[i][None],
            node_inf[i][None], supp[i][None], base_active, weight[i][None],
            CandidateScan(net.source, net.target, duration), incident)
        assert counts[i] == one[0][0] > 0
        assert sizes[i] == one[1][0] > 0
        lo, hi = off, off + sizes[i]
        np.testing.assert_array_equal(pids[lo:hi], one[2])
        np.testing.assert_array_equal(codes_out[lo:hi], one[3])
        np.testing.assert_array_equal(infectors[lo:hi], one[4])
        assert rngs[i].bit_generator.state == one_rng.bit_generator.state
        off = hi


def test_auto_rule_one_lane_is_the_solo_crossover(vt):
    net, n = vt.net, vt.pop.size
    incident = IncidentEdges(net.source, net.target, n)
    setup = np.random.default_rng(2)
    threshold = FRONTIER_DENSE_CROSSOVER * net.n_edges
    for prevalence in (0.0, 0.01, 0.03, 0.05, 0.08, 0.15, 0.4, 1.0):
        masks = setup.random((3, n)) < prevalence
        gathered = [incident.degree_sum(np.flatnonzero(m)) for m in masks]
        for mask, g in zip(masks, gathered):
            want = (TransmissionBackend.FRONTIER if g <= threshold
                    else TransmissionBackend.DENSE)
            assert resolve_auto(mask[None], incident, net.n_edges) is want
        # Lanes resolved together: one decision over the summed workload.
        want = (TransmissionBackend.FRONTIER if sum(gathered) <= threshold
                else TransmissionBackend.DENSE)
        assert resolve_auto(masks, incident, net.n_edges) is want


def test_auto_without_an_index_scans_dense(vt):
    net, n = vt.net, vt.pop.size
    model = build_covid_model_with_symp_fraction(0.9, 0.65)
    health = np.zeros(n, dtype=np.int8)
    health[::7] = model.code(EXPOSED) + 1  # an infectious state
    assert model.is_infectious[health].any()
    args = (model, health, np.ones(n), np.ones(n), net.source, net.target,
            np.ones(net.n_edges, bool), np.ones(net.n_edges),
            net.duration.astype(np.float64))
    auto = transmission_step(*args, np.random.default_rng(1), backend="auto")
    dense = transmission_step(*args, np.random.default_rng(1))
    assert auto.n_candidates == dense.n_candidates > 0
    np.testing.assert_array_equal(auto.pids, dense.pids)
    np.testing.assert_array_equal(auto.infectors, dense.infectors)
