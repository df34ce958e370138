"""Public-API surface tests: everything documented imports cleanly."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro",
    "repro.analytics",
    "repro.calibration",
    "repro.checkpoint",
    "repro.cluster",
    "repro.core",
    "repro.economics",
    "repro.epihiper",
    "repro.metapop",
    "repro.obs",
    "repro.plane",
    "repro.resilience",
    "repro.scheduling",
    "repro.service",
    "repro.store",
    "repro.surrogate",
    "repro.surveillance",
    "repro.synthpop",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports(name):
    mod = importlib.import_module(name)
    assert mod is not None


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first(name):
    """Each subpackage imports as a process's first import: an import
    cycle that a warm ``sys.modules`` hides (as in-process tests have)
    would make a script that starts with it fail at its first line."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", f"import {name}"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", [n for n in SUBPACKAGES if n != "repro"])
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    assert hasattr(mod, "__all__")
    for symbol in mod.__all__:
        assert hasattr(mod, symbol), f"{name}.{symbol} missing"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_quickstart_surface():
    """The README quickstart's imports work as documented."""
    from repro.synthpop import build_region_network
    from repro.epihiper import Simulation, build_covid_model, uniform_seeds
    from repro.analytics import summarize, target_series, CONFIRMED

    pop, net = build_region_network("VT", scale=1e-3, seed=0)
    model = build_covid_model()
    sim = Simulation(model, pop, net, seed=0)
    sim.seed_infections(uniform_seeds(pop, 5, sim.rng))
    result = sim.run(10)
    series = target_series(summarize(result, model), model, CONFIRMED)
    assert series.shape == (11,)
