"""Instrumentation must observe, never perturb: bit-identical outputs.

The registry reads clocks and counts work, but the simulation's RNG
stream and state evolution must be untouched — a run on its own registry
and a bare run of the same seed produce byte-for-byte the same outputs,
and the trace's metrics agree with the legacy counter views exactly (same
observations, not a parallel measurement).
"""

import numpy as np
import pytest

from repro.epihiper import Simulation, uniform_seeds
from repro.obs import MetricsRegistry, Tracer, summarize

pytestmark = pytest.mark.fast

N_DAYS = 40


def _run(vt_assets, covid_model, *, metrics=None):
    pop, net = vt_assets
    sim = Simulation(covid_model, pop, net, seed=11, metrics=metrics)
    sim.seed_infections(uniform_seeds(pop, 5, sim.rng))
    return sim.run(N_DAYS)


def test_run_on_own_registry_is_bit_identical(vt_assets, covid_model):
    bare = _run(vt_assets, covid_model)
    counted = _run(vt_assets, covid_model, metrics=MetricsRegistry())

    np.testing.assert_array_equal(bare.state_counts, counted.state_counts)
    np.testing.assert_array_equal(bare.memory_series, counted.memory_series)
    np.testing.assert_array_equal(bare.log.tick, counted.log.tick)
    np.testing.assert_array_equal(bare.log.pid, counted.log.pid)
    np.testing.assert_array_equal(bare.log.state, counted.log.state)
    np.testing.assert_array_equal(bare.log.infector, counted.log.infector)
    # Work counters (not clocks) are identical too.
    for key in ("engine.transitions", "engine.contacts_evaluated"):
        assert bare.metrics.value(key) == counted.metrics.value(key)


def test_trace_phase_totals_equal_legacy_counters(tmp_path, vt_assets,
                                                  covid_model):
    path = tmp_path / "trace.jsonl"
    reg = MetricsRegistry()
    with Tracer(path, run_id="phases") as tr:
        result = _run(vt_assets, covid_model, metrics=reg)
        tr.metrics(reg)

    s = summarize(path)
    table = {phase: total for phase, total, _ in s.engine_phase_table()}
    # Same observations on both sides of the JSONL stream — exact equality,
    # not approximate: there is one measurement, viewed twice.
    for phase in ("interventions", "transmission", "progression"):
        assert table[phase] == result.metrics.value(f"engine.{phase}_s")
    shares = [share for _, _, share in s.engine_phase_table()]
    assert sum(shares) == pytest.approx(1.0)
