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


def _fresh_modules(code):
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code += "\nimport sys; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


@pytest.mark.fast
@pytest.mark.parametrize("name", [
    "repro.core.parallel", "repro.core.runner", "repro.core.batching",
    "repro.service", "repro.surrogate", "repro.core.orchestrator",
    "repro.core.prediction_wf"])
def test_entry_module_loads_no_scipy_or_networkx(name):
    """scipy and networkx load only where they are called: a process
    that simulates, serves or orchestrates never pays for them."""
    loaded = _fresh_modules(f"import {name}")
    assert name in loaded
    assert {"scipy", "networkx"} & loaded == set()


@pytest.mark.fast
def test_fitting_a_gp_loads_scipy_where_it_is_called():
    """Importing the calibration package leaves scipy unloaded; the fit
    that needs it loads it and returns a working emulator."""
    loaded = _fresh_modules(
        "import sys\n"
        "import numpy as np\n"
        "from repro.calibration import fit_gp\n"
        "assert 'scipy' not in sys.modules\n"
        "x = np.linspace(0.0, 1.0, 6)[:, None]\n"
        "gp = fit_gp(x, np.sin(3.0 * x[:, 0]), np.random.default_rng(0))\n"
        "mean, var = gp.predict(x)\n"
        "assert np.allclose(mean, np.sin(3.0 * x[:, 0]), atol=0.1)\n"
        "assert (var > 0).all()")
    assert "scipy" in loaded


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
