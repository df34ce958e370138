"""The state a sparse tick maintains equals its recomputation, every tick.

A frontier tick never rescans ``health``: the census, the infectious mask
and the frontier degree sum are updated where ``health`` changes
(``Simulation.enter_state`` / ``BatchedSimulation._apply_flat``), and
progressions wait as due ticks instead of per-tick countdowns.  These
tests recompute all of it anew after every tick — on each transmission
kernel, a driver of one lane and of four, and across a checkpoint restore —
and replay the old countdown sweep on the derived dwell as the reference
for who fires when.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.epihiper import Simulation, uniform_seeds
from repro.epihiper.batch import BatchedSimulation
from repro.epihiper.covid import build_covid_model_with_symp_fraction
from repro.epihiper.npi import make_sc, make_sh, make_vhi

from ..conftest import KERNELS

pytestmark = pytest.mark.fast

N_DAYS = 24
RESTORE_TICK = 9


def make_lanes(pop, net, k):
    lanes = []
    for seed in range(k):
        model = build_covid_model_with_symp_fraction(0.9, 0.65)
        sim = Simulation(model, pop, net, seed=100 + seed,
                         interventions=[make_sc(start=3), make_vhi(0.6),
                                        make_sh(0.5, start=6, end=14)])
        sim.seed_infections(uniform_seeds(pop, 12, sim.rng))
        lanes.append(sim)
    return lanes


class Stepper:
    """K lanes on one driver (K = 1 is a solo run), stepped one tick at a
    time."""

    def __init__(self, pop, net, k):
        self.lanes = make_lanes(pop, net, k)
        self.engine = BatchedSimulation(self.lanes)
        self.engine.begin()

    def save(self):
        return self.engine.save_state(ticks_since_flush=0)

    def restore(self, payloads):
        self.engine.restore_state(payloads)


def assert_derived_state(sim, degrees):
    """Census, infectious mask, infectious count and frontier degree sum
    equal their recomputation from ``health``."""
    model = sim.model
    np.testing.assert_array_equal(
        sim._census, np.bincount(sim.health, minlength=model.n_states))
    np.testing.assert_array_equal(sim.current_state_counts(), sim._census)
    want_inf = model.is_infectious[sim.health]
    np.testing.assert_array_equal(sim._infectious, want_inf)
    assert sim._census[model.is_infectious].sum() == want_inf.sum()
    # The degree sum is kept from the moment the incident CSR exists.
    assert (sim._degrees is None) == (sim._network is None)
    if sim._degrees is not None:
        assert sim._frontier_degree[0] == degrees[want_inf].sum()
    assert sim.sched.n_pending == int((sim.sched.due > 0).sum())


def assert_reference_sweep(sim, before, tick):
    """The old per-tick countdown, replayed on the dwell the due ticks
    imply, predicts every progression and every untouched schedule."""
    dwell, next_state, n_rows = before
    ref = dwell.copy()
    pending = ref > 0
    ref[pending] -= 1
    fires = np.flatnonzero(pending & (ref == 0) & (next_state >= 0))
    log = sim.recorder.finalize()
    at = np.arange(log.size) >= n_rows  # this step's transitions
    assert (log.tick[at] == tick).all()
    progressed = log.pid[at & (log.infector < 0)]
    exposed = log.pid[at & (log.infector >= 0)]
    # Every due schedule fired into its destination; anything else that
    # progressed was exposed this very tick (a one-tick dwell).
    assert set(fires.tolist()) <= set(progressed.tolist())
    assert set(np.setdiff1d(progressed, fires).tolist()) <= set(
        exposed.tolist())
    first = {}
    for p, s in zip(log.pid[at & (log.infector < 0)].tolist(),
                    log.state[at & (log.infector < 0)].tolist()):
        first.setdefault(p, s)
    for p in fires.tolist():
        assert first[p] == next_state[p]
    now = sim.sched.remaining(tick + 1)
    touched = np.zeros(dwell.shape[0], dtype=bool)
    touched[log.pid[at]] = True
    np.testing.assert_array_equal(now[~touched], ref[~touched])
    # A schedule made by this tick's own sweep has not been counted down
    # yet: a pending one still waits at least a tick.
    pend = sim.sched.due[progressed] > 0
    assert (now[progressed][pend] >= 1).all()
    assert (now[touched] >= 0).all()


@pytest.mark.parametrize("restore", [False, True],
                         ids=["plain", "restored"])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("kernel", KERNELS)
def test_maintained_state_equals_recomputation(vt_assets, kernel, k,
                                               restore, force_kernel):
    pop, net = vt_assets
    degrees = net.degrees()
    with force_kernel(kernel):
        stepper = Stepper(pop, net, k)
        for sim in stepper.lanes:
            assert_derived_state(sim, degrees)
        for tick in range(N_DAYS):
            if restore and tick == RESTORE_TICK:
                payloads = stepper.save()
                stepper = Stepper(pop, net, k)
                stepper.restore(payloads)
                for sim in stepper.lanes:
                    assert_derived_state(sim, degrees)
            before = [(sim.sched.remaining(tick),
                       sim.sched.next_state.copy(), sim.recorder.n_rows)
                      for sim in stepper.lanes]
            stepper.engine.step()
            for sim, state in zip(stepper.lanes, before):
                assert sim.tick == tick + 1
                # Every driver builds the CSR, whatever the kernel.
                assert sim._degrees is not None
                assert_derived_state(sim, degrees)
                assert_reference_sweep(sim, state, tick)
    assert any(sim._census[sim.model.is_infectious].sum()
               for sim in stepper.lanes)


def test_snapshot_dwell_is_the_countdown(vt_assets):
    """``save_state`` writes remaining dwell (``due - tick``), and a
    restore turns it back into the same due ticks."""
    pop, net = vt_assets
    sim = make_lanes(pop, net, 1)[0]
    engine = BatchedSimulation([sim])
    engine.run(RESTORE_TICK)
    [payload] = engine.save_state()
    np.testing.assert_array_equal(payload["dwell"],
                                  sim.sched.remaining(RESTORE_TICK))
    assert (payload["dwell"] >= 0).all() and payload["dwell"].any()
    fresh = make_lanes(pop, net, 1)[0]
    BatchedSimulation([fresh]).restore_state([payload])
    np.testing.assert_array_equal(fresh.sched.due, sim.sched.due)
