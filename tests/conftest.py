"""Shared fixtures: small, session-cached region inputs.

Tests run at tiny scales (tens to a few thousand persons) so the whole
suite stays fast while exercising the real code paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.epihiper import Simulation, build_covid_model, uniform_seeds
from repro.surveillance import generate_region_truth
from repro.synthpop import build_region_network

#: Scale used by most tests (VT ~ 620 persons, VA ~ 8.5k).
TEST_SCALE = 1e-3
TEST_SEED = 424242


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_store(tmp_path_factory):
    """Keep the default result store and trace out of ~/.cache in tests."""
    import os

    old = {k: os.environ.get(k)
           for k in ("REPRO_STORE_DIR", "REPRO_TRACE_PATH")}
    os.environ["REPRO_STORE_DIR"] = str(
        tmp_path_factory.mktemp("result-store"))
    os.environ["REPRO_TRACE_PATH"] = str(
        tmp_path_factory.mktemp("trace") / "trace.jsonl")
    yield
    for key, val in old.items():
        if val is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = val


@pytest.fixture(autouse=True)
def _no_pool_across_tests():
    """Join the fan-out's long-lived pool after every test: its workers
    forked with this test's monkeypatched module state and ``REPRO_*``
    environment, neither of which may reach the next."""
    yield
    from repro.core.parallel import close_pool

    close_pool()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(TEST_SEED)


@pytest.fixture(scope="session")
def vt_assets():
    """Vermont at 1e-3: ~620 persons — the smallest real region."""
    return build_region_network("VT", scale=TEST_SCALE, seed=TEST_SEED)


@pytest.fixture(scope="session")
def va_assets():
    """Virginia at 1e-3: ~8.5k persons, ~30k edges."""
    return build_region_network("VA", scale=TEST_SCALE, seed=TEST_SEED)


@pytest.fixture(scope="session")
def covid_model():
    return build_covid_model()


@pytest.fixture(scope="session")
def va_truth():
    return generate_region_truth("VA", n_days=150, seed=TEST_SEED)


@pytest.fixture(scope="session")
def va_run(va_assets, covid_model):
    """A completed 90-day VA simulation shared by read-only tests."""
    pop, net = va_assets
    sim = Simulation(covid_model, pop, net, seed=7)
    sim.seed_infections(uniform_seeds(pop, 25, sim.rng))
    result = sim.run(90)
    return pop, net, result
