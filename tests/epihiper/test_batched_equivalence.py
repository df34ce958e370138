"""Batched-vs-serial equivalence: bit-identical, not statistical.

The batched kernel's contract is that a replicate advanced alongside K-1
others emits *exactly* the bytes it emits alone — same transition log, same
census trajectory, same work counters — because each lane keeps its own
Philox stream and every phase consumes it in solo order.  These tests pin
that contract on each transmission kernel (forced, or the engine's rule),
across batch widths, heterogeneous seeds and cell parameters, mid-run
intervention triggers, and unions of lanes on different regions' networks.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.runner import load_region_assets
from repro.epihiper import Simulation, uniform_seeds
from repro.epihiper.batch import BatchIncompatible, BatchedSimulation
from repro.epihiper.covid import (
    ASYMPT,
    PRESYMPT,
    SUSCEPTIBLE,
    SYMPT,
    build_covid_model_with_symp_fraction,
    covid_progressions,
    covid_states,
    covid_transmissions,
)
from repro.epihiper.disease import DiseaseModel
from repro.epihiper.initialization import initialize_from_surveillance
from repro.epihiper.npi import (
    make_d1ct,
    make_masking,
    make_sc,
    make_sh,
    make_vhi,
)
from repro.epihiper.states import FixedDwell
from repro.obs.registry import MetricsRegistry
from repro.params import DEFAULT_SEED
from repro.synthpop.regions import BY_POPULATION

from ..conftest import KERNELS

pytestmark = pytest.mark.fast

N_DAYS = 30

#: Work counters that must match a solo run exactly (not just the output
#: rows): candidate enumeration, sampling, and phase bookkeeping agree.
EXACT_COUNTERS = ("contacts_evaluated", "transmissions", "transitions")


def dwell_variant_model(tau=0.35):
    """The COVID model with one dwell changed (Presympt -> Sympt: 1 -> 2
    days) — same states and graph, so only the dwell comparison differs."""
    progressions = [
        dataclasses.replace(p, dwell=FixedDwell(2))
        if (p.src, p.dst) == (PRESYMPT, SYMPT) else p
        for p in covid_progressions()]
    return DiseaseModel("covid19-dwell", covid_states(), progressions,
                        covid_transmissions(), tau)


def omega_variant_model(tau=0.35):
    """The COVID model with one transmission rate halved
    (Susceptible x Asympt) — only the omega table differs."""
    transmissions = [
        dataclasses.replace(t, omega=0.5)
        if (t.susceptible, t.infectious) == (SUSCEPTIBLE, ASYMPT) else t
        for t in covid_transmissions()]
    return DiseaseModel("covid19-omega", covid_states(),
                        covid_progressions(), transmissions, tau)


def make_lane(pop, net, *, seed, tau=0.35, symp=0.65,
              interventions=None, n_seeds=8, model=None):
    """One deterministic, seeded, not-yet-run replicate lane."""
    if model is None:
        model = build_covid_model_with_symp_fraction(tau, symp)
    if interventions is None:
        interventions = [make_sc(start=5), make_vhi(0.6),
                         make_sh(0.5, start=8, end=20)]
    sim = Simulation(model, pop, net, seed=seed,
                     interventions=interventions)
    sim.seed_infections(uniform_seeds(pop, n_seeds, sim.rng))
    return sim, model


def assert_result_identical(solo, batched, label=""):
    np.testing.assert_array_equal(
        solo.state_counts, batched.state_counts,
        err_msg=f"{label} state census diverged")
    np.testing.assert_array_equal(
        solo.memory_series, batched.memory_series,
        err_msg=f"{label} memory series diverged")
    for field in ("tick", "pid", "state", "infector"):
        np.testing.assert_array_equal(
            getattr(solo.log, field), getattr(batched.log, field),
            err_msg=f"{label} log.{field} diverged")
    s_counters, b_counters = (
        r.metrics.snapshot(prefix="engine.", strip=True)
        for r in (solo, batched))
    for key in EXACT_COUNTERS:
        assert s_counters[key] == b_counters[key], (
            f"{label} counter {key}: solo {s_counters[key]} "
            f"!= batched {b_counters[key]}")


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("k", [1, 2, 16])
def test_batched_matches_serial_bitwise(vt_assets, kernel, k, force_kernel):
    """K lanes, heterogeneous seeds, one kernel: every lane solo-exact."""
    pop, net = vt_assets
    seeds = [1000 + 7 * i for i in range(k)]

    with force_kernel(kernel):
        solo_results = []
        for seed in seeds:
            sim, _ = make_lane(pop, net, seed=seed)
            solo_results.append(sim.run(N_DAYS))

        lanes = [make_lane(pop, net, seed=seed)[0] for seed in seeds]
        batch = BatchedSimulation(lanes, metrics=MetricsRegistry())
        batched_results = batch.run(N_DAYS)

    assert len(batched_results) == k
    for i, (solo, batched) in enumerate(zip(solo_results, batched_results)):
        assert_result_identical(solo, batched,
                                label=f"{kernel} lane {i} seed {seeds[i]}")


def test_batched_heterogeneous_cells_and_backends(vt_assets, force_kernel):
    """Mixed TAU/SYMP cells in one batch stay exact, on each kernel.

    This is the calibration-sweep shape: lanes differ in model parameters
    (per-lane transmissibility and choice columns ride the one stacked
    propensity evaluation and the one cross-lane scheduler).  Under the
    rule the batch decides over its summed workload, so it may scan dense
    on a tick where a lane alone would gather its frontier.
    """
    pop, net = vt_assets
    cells = [
        dict(seed=11, tau=0.30, symp=0.65),
        dict(seed=22, tau=0.45, symp=0.65),
        dict(seed=33, tau=0.30, symp=0.80),
        dict(seed=44, tau=0.60, symp=0.50),
    ]
    for kernel in KERNELS:
        with force_kernel(kernel):
            solo_results = [make_lane(pop, net, **c)[0].run(N_DAYS)
                            for c in cells]
            batch = BatchedSimulation([make_lane(pop, net, **c)[0]
                                       for c in cells])
            batched_results = batch.run(N_DAYS)
        for i, (solo, batched) in enumerate(zip(solo_results,
                                                batched_results)):
            assert_result_identical(solo, batched,
                                    label=f"{kernel} cell {i}")


@pytest.mark.parametrize("k", [1, 4, 16])
def test_forced_kernels_emit_the_same_bytes(vt_assets, k, force_kernel):
    """Dense on every tick and frontier on every tick: each lane of a
    K-lane driver emits the same bytes either way."""
    pop, net = vt_assets
    seeds = [2000 + 7 * i for i in range(k)]
    runs = {}
    for kernel in ("dense", "frontier"):
        with force_kernel(kernel):
            lanes = [make_lane(pop, net, seed=seed)[0] for seed in seeds]
            runs[kernel] = BatchedSimulation(lanes).run(N_DAYS)
    for i, (dense, frontier) in enumerate(zip(runs["dense"],
                                              runs["frontier"])):
        assert_result_identical(dense, frontier, label=f"lane {i}")


def test_batched_mid_run_intervention_triggers(vt_assets):
    """Interventions firing mid-run (SC/SH start, SH end, VHI) stay exact.

    The trigger days straddle the run so every lane crosses activation and
    expiry boundaries inside the batched tick loop; compliance draws and
    edge-suppression updates must consume each lane's stream in solo
    order.
    """
    pop, net = vt_assets
    # Interventions hold closure state (suppression handles), so each run
    # gets a freshly built stack.
    stacks = [
        lambda: [make_sc(start=3), make_sh(0.7, start=6, end=12)],
        lambda: [make_vhi(0.8)],
        lambda: [make_sc(start=10), make_vhi(0.4),
                 make_sh(0.3, start=12, end=25)],
    ]
    seeds = [5, 6, 7]
    solo_results = [
        make_lane(pop, net, seed=s, interventions=build())[0].run(N_DAYS)
        for s, build in zip(seeds, stacks)]
    batch = BatchedSimulation([
        make_lane(pop, net, seed=s, interventions=build())[0]
        for s, build in zip(seeds, stacks)])
    for i, (solo, batched) in enumerate(zip(solo_results,
                                            batch.run(N_DAYS))):
        assert_result_identical(solo, batched, label=f"stack {i}")


def test_batched_join_mid_run(vt_assets):
    """Lanes already advanced to the same tick can batch and stay exact."""
    pop, net = vt_assets
    seeds = [71, 72]
    solo_results = []
    for seed in seeds:
        sim, _ = make_lane(pop, net, seed=seed)
        solo_results.append(sim.run(N_DAYS))

    lanes = [make_lane(pop, net, seed=seed)[0] for seed in seeds]
    for sim in lanes:
        sim.run(10)  # advance solo first
    batch = BatchedSimulation(lanes)
    tail = batch.run(N_DAYS - 10)
    for i, (solo, batched) in enumerate(zip(solo_results, tail)):
        # Lane results carry the whole run history (solo prefix included),
        # so the batched-tail result must equal the all-solo run exactly.
        assert_result_identical(solo, batched, label=f"joined lane {i}")


#: Every third region by descending population, CA first: the national
#: sweep's 17 lone regions at 1e-3.
UNION_REGIONS = tuple(list(reversed(BY_POPULATION))[::3])


def union_lane(j, region):
    """Lane ``j`` of a union: its own region at 1e-3, seeded from
    surveillance; lane 1 masks and lane 2 traces contacts (its CSR is
    the lane's own network's), the rest run SC + VHI + SH."""
    assets = load_region_assets(region, 1e-3, DEFAULT_SEED)
    interventions = [make_sc(start=5), make_vhi(0.6),
                     make_sh(0.5, start=8, end=20)]
    if j == 1:
        interventions.append(make_masking(0.7, start=4, end=25))
    if j == 2:
        interventions.append(make_d1ct(compliance=0.8))
    model = build_covid_model_with_symp_fraction(0.3 + 0.02 * (j % 4),
                                                 0.65)
    sim = Simulation(model, assets.pop, assets.net, seed=500 + j,
                     interventions=interventions)
    initialize_from_surveillance(sim, assets.truth.latest_by_county())
    return sim


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("k", [2, 5, 17])
def test_union_of_regions_matches_solo_bitwise(kernel, k, force_kernel):
    """One driver over k different regions' networks: every lane emits
    the bytes it emits alone, with a masking and a tracing lane among
    them, on each kernel."""
    regions = UNION_REGIONS[-k:]
    with force_kernel(kernel):
        solo = [union_lane(j, r).run(N_DAYS) for j, r in enumerate(regions)]
        union = BatchedSimulation(
            [union_lane(j, r) for j, r in enumerate(regions)]).run(N_DAYS)
    assert [r.region_code for r in union] == list(regions)
    for j, (one, lane) in enumerate(zip(solo, union)):
        assert_result_identical(one, lane,
                                label=f"{kernel} k={k} {regions[j]}")
    assert sum(r.metrics.value("engine.transmissions") for r in union) > 0


def test_lanes_on_different_regions_share_a_driver(vt_assets, va_assets):
    """Lanes need not share a population, a network or base edge
    activity: each runs on its own, bit-identically to solo."""
    pop, net = vt_assets
    va_pop, va_net = va_assets
    # A copy of VT's network with its first 50 edges off.
    active = net.active.copy()
    active[:50] = False
    flipped_net = dataclasses.replace(net, active=active)
    flipped, _ = make_lane(pop, flipped_net, seed=7)
    solo_flipped, _ = make_lane(pop, flipped_net, seed=7)
    solo = [make_lane(pop, net, seed=1)[0].run(N_DAYS),
            make_lane(va_pop, va_net, seed=2)[0].run(N_DAYS),
            solo_flipped.run(N_DAYS)]
    lanes = [make_lane(pop, net, seed=1)[0],
             make_lane(va_pop, va_net, seed=2)[0], flipped]
    for i, (one, lane) in enumerate(zip(solo,
                                        BatchedSimulation(lanes).run(N_DAYS))):
        assert_result_identical(one, lane, label=f"lane {i}")


def test_batched_rejects_incompatible_lanes(vt_assets):
    pop, net = vt_assets
    c, _ = make_lane(pop, net, seed=3)
    c.run(1)
    d, _ = make_lane(pop, net, seed=4)
    with pytest.raises(BatchIncompatible, match="same tick"):
        BatchedSimulation([c, d])
    with pytest.raises(BatchIncompatible, match="at least one lane"):
        BatchedSimulation([])
    # Structural mismatches the stacked kernels cannot absorb: rejected at
    # construction, before any lane array is rebound to a stack slice.
    for odd, reason in [
        (make_lane(pop, net, seed=5, model=dwell_variant_model())[0],
         "dwell values"),
        (make_lane(pop, net, seed=6, model=omega_variant_model())[0],
         "omega tables"),
    ]:
        lanes = [make_lane(pop, net, seed=8)[0], odd]
        arrays = [(sim.health, sim.sched.due, sim.edge_weight)
                  for sim in lanes]
        with pytest.raises(BatchIncompatible, match=reason):
            BatchedSimulation(lanes)
        for sim, (health, due, weight) in zip(lanes, arrays):
            assert sim.health is health and sim.sched.due is due
            assert sim.edge_weight is weight


def test_batch_metrics_surface(vt_assets):
    """batch.size gauge and phase timers land in the registry."""
    pop, net = vt_assets
    reg = MetricsRegistry()
    lanes = [make_lane(pop, net, seed=s)[0] for s in (1, 2, 3)]
    BatchedSimulation(lanes, metrics=reg).run(5)
    dump = reg.snapshot()
    assert dump["batch.size"] == 3
    timer_keys = [k for k in dump if k.startswith("batch.")
                  and k.endswith("_s")]
    assert timer_keys, f"no batch phase timers in {sorted(dump)}"


def test_batch_apportions_engine_phase_timers(vt_assets):
    """Lanes keep a live Fig. 7 breakdown: each gets ``total / K`` of a
    batch phase clock, observed once per tick, so ``trace summarize``
    sees nonzero phases and honest tick counts after batched runs."""
    pop, net = vt_assets
    reg = MetricsRegistry()
    lanes = [make_lane(pop, net, seed=s)[0] for s in (1, 2, 3)]
    batch = BatchedSimulation(lanes, metrics=reg)
    results = batch.run(7)
    for phase in ("interventions_s", "transmission_s", "progression_s"):
        batch_total = reg.value(f"batch.{phase}")
        assert batch_total > 0.0
        lane_values = [r.metrics.value(f"engine.{phase}") for r in results]
        assert sum(lane_values) == pytest.approx(batch_total, rel=1e-9)
        for r in results:
            assert r.metrics.count(f"engine.{phase}") == 7
    # A second run on the same batch extends, never double-credits.
    more = batch.run(3)
    assert more[0].metrics.count("engine.transmission_s") == 10
    assert sum(r.metrics.value("engine.transmission_s")
               for r in more) == pytest.approx(
                   reg.value("batch.transmission_s"), rel=1e-9)
