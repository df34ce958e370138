"""Shared fixtures: small, session-cached region inputs.

Tests run at tiny scales (tens to a few thousand persons) so the whole
suite stays fast while exercising the real code paths.
"""

from __future__ import annotations

from typing import NamedTuple

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


#: The transmission kernels a test can run on: two forced, and the rule.
KERNELS = ("dense", "frontier", "auto")


class Exposures(NamedTuple):
    """One tick's exposures from :func:`one_lane_tick`."""

    n_candidates: int  #: directed susceptible-infectious contacts evaluated
    pids: np.ndarray  #: persons leaving a susceptible state
    exposed_codes: np.ndarray  #: state each person enters
    infectors: np.ndarray  #: the contact that caused each transition


def one_lane_tick(kernel, model, health, src, tgt, dur, *, seed=0,
                  sus=None, inf=None, active=None, weight=None):
    """One lane's transmission tick over loose arrays with ``kernel``
    forced, as the driver runs it: a ``CandidateScan`` over a network of
    the given columns (all edges active and weights 1 unless given),
    then ``sample_transmissions`` on a fresh stream of ``seed``."""
    from repro.epihiper.engine import SharedNetwork
    from repro.epihiper.transmission import (
        CandidateScan,
        TransmissionBackend,
        sample_transmissions,
    )
    from repro.synthpop.contacts import ContactNetwork

    n, m = health.shape[0], src.shape[0]
    ones = np.ones(n)
    weight = np.ones(m) if weight is None else weight
    contexts = np.zeros(m, dtype=np.int8)
    net = SharedNetwork(ContactNetwork(
        "test", n, src, tgt, np.zeros(m, np.int32), dur, contexts, contexts,
        weight, np.ones(m, bool) if active is None else active))
    infectious = model.is_infectious[health]
    scan = CandidateScan([net])
    cand = scan.candidates(
        TransmissionBackend(kernel), model, health, infectious,
        np.array([infectious @ net.incident.degrees]),
        np.zeros(m, np.int16), [weight])
    _sizes, pids, codes, infectors = sample_transmissions(
        model, [model.transmissibility], [np.random.default_rng(seed)],
        health, ones if sus is None else sus, ones if inf is None else inf,
        scan.offsets, cand)
    return Exposures(int(cand[4][0]), pids, codes, infectors)


@pytest.fixture
def force_kernel():
    """``with force_kernel(k):`` runs its block with every tick on kernel
    ``k`` of :data:`KERNELS` (``auto``: the engine's own rule).

    The engine picks its kernel from what it observes, so a test forces
    one by patching the rule's crossover — ``-1.0`` for dense, ``inf``
    for frontier — around the block, closing the fan-out's pool on entry
    and on exit so that pooled workers fork after the patch
    (:func:`tests.golden.generate.forced_kernel`, which the golden
    matrix shares).
    """
    from .golden.generate import forced_kernel

    return forced_kernel


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
