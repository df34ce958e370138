"""The single execution path, tested as a matrix.

One executor (:func:`repro.core.runner.execute_specs`), one worker entry
and one supervised pass serve every combination of group width, kernel,
checkpointing, mid-run crash and serial/pooled fan-out; each combination
must reproduce the :func:`repro.core.runner.run_instance` reference bit
for bit and report the same supervision accounting the per-feature suites
pin.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.checkpoint import CheckpointPlan, snapshot_simulation
from repro.core import parallel
from repro.core.parallel import InstanceSpec, supervise_instances
from repro.core.runner import (
    confirmed_series,
    load_region_assets,
    prepare_instance,
    run_instance,
)
from repro.obs import MetricsRegistry
from repro.obs.registry import Stopwatch
from repro.resilience import FaultPlan, RetryPolicy
from repro.store.keys import instance_key

from ..conftest import KERNELS

DAYS = 25
EVERY = 10
CRASH_TICK = 17  # between the tick-10 and tick-20 snapshots
RESUME_TICK = (CRASH_TICK // EVERY) * EVERY
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)


def spec(region, seed, kernel="auto", n_days=DAYS):
    return InstanceSpec(
        region_code=region,
        params={"TAU": 0.3, "SH_COMPLIANCE": 0.6},
        n_days=n_days, scale=1e-3, seed=seed,
        label=f"mx-{region}-{kernel}-d{n_days}-s{seed}", asset_seed=0)


def assert_matches_reference(outcomes, specs):
    """Every outcome equals a direct ``run_instance`` of its spec."""
    for outcome, s in zip(outcomes, specs):
        assets = load_region_assets(s.region_code, s.scale, s.asset_seed)
        result, model = run_instance(assets, s.params, n_days=s.n_days,
                                     seed=s.seed)
        want = confirmed_series(result, model, s.n_days)
        assert outcome.spec == s
        assert outcome.confirmed.tobytes() == want.tobytes(), s.label
        assert outcome.attack_rate == result.attack_rate(model), s.label
        assert outcome.transitions == result.log.size, s.label


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
@pytest.mark.parametrize("crash", [False, True], ids=["clean", "crash"])
@pytest.mark.parametrize("every", [0, EVERY], ids=["ck-off", "ck-10"])
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("k", [1, 4])
def test_every_combination_matches_the_reference(tmp_path, k, kernel,
                                                 every, crash, pooled,
                                                 force_kernel):
    # K=1: two singles (distinct regions, so each is a group of one and
    # the pooled leg has something to pool); K=4: one 4-lane group.
    specs = ([spec("VT", 100, kernel), spec("WY", 113, kernel)] if k == 1
             else [spec("VT", 100 + 13 * i, kernel) for i in range(4)])
    n_groups = 2 if k == 1 else 1
    plan = (CheckpointPlan(store_root=str(tmp_path / "ck"), every=every)
            if every else None)
    # The crash targets the first spec only: it kills that spec's whole
    # group (the failure domain) once, at attempt 0.
    faults = (FaultPlan.parse(
        [f"worker.crash_mid_run:tick={CRASH_TICK},times=1,"
         f"match={specs[0].label}"], seed=0) if crash else None)
    reg = MetricsRegistry()
    with force_kernel(kernel):
        res = supervise_instances(
            specs, parallel=pooled, max_workers=2, retry=FAST_RETRY,
            faults=faults, registry=reg, checkpoint=plan)

        assert res.ok
        assert_matches_reference(res.results, specs)
    assert reg.value("runner.instances") == len(specs)
    assert reg.value("batch.groups") == (1 if k > 1 else 0)
    saved = k * RESUME_TICK if crash and every else 0
    if not crash:
        assert (res.attempts, res.retries, res.pool_rebuilds) == (
            n_groups, 0, 0)
        assert res.ticks_saved == 0
    elif not pooled:
        # In-process the crash is a typed transient fault: one retry.
        assert (res.attempts, res.retries, res.pool_rebuilds) == (
            n_groups + 1, 1, 0)
        assert res.ticks_saved == saved
        assert reg.value("faults.worker.crash_mid_run") == 1
    else:
        # Under a pool the worker dies hard: one rebuild, no "retry".  A
        # bystander in flight when the pool broke is resubmitted too, and
        # resumes from whatever snapshot it had reached.
        assert res.retries == 0 and res.pool_rebuilds == 1
        assert n_groups + 1 <= res.attempts <= 2 * n_groups
        assert res.ticks_saved >= saved
        assert res.ticks_saved % EVERY == 0
        if n_groups == 1:
            assert res.ticks_saved == saved
    # (A crashed attempt's counters die with it, so only the clean legs
    # pin the write count.)
    if not crash:
        assert reg.value("checkpoint.written") == (
            len(specs) * ((DAYS - 1) // EVERY) if every else 0)


def test_mixed_batch_spawns_one_pool(monkeypatch):
    """Two 4-lane groups plus three singles share one pool spawn."""
    pools = []

    class CountingPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    groups = [spec(region, 200 + 7 * i)
              for region in ("VT", "WY") for i in range(4)]
    # A different horizon is a different group key: three groups of one.
    singles = [spec("VT", 300 + i, n_days=DAYS - 1 - i) for i in range(3)]
    specs = groups[:4] + singles[:2] + groups[4:] + singles[2:]
    reg = MetricsRegistry()
    res = supervise_instances(specs, parallel=True, max_workers=2,
                              registry=reg)
    assert res.ok and res.attempts == 5
    assert pools == [2]
    assert reg.value("batch.groups") == 2
    assert reg.value("parallel.workers") == 2
    assert_matches_reference(res.results, specs)


def test_inapplicable_snapshot_is_not_double_timed(tmp_path):
    """Regression: a checkpoint that loads but fails to apply forces a
    lane rebuild; that rebuild used to run under ``runner.batch_setup_s``
    *nested inside* ``runner.simulate_s`` and was counted twice."""
    specs = [spec("VT", 400 + i) for i in range(4)]
    plan = CheckpointPlan(store_root=str(tmp_path / "ck"), every=EVERY)
    manager = plan.manager()
    assets = load_region_assets("VT", 1e-3, 0)
    for s in specs:
        # A snapshot taken under a different intervention stack: the blob
        # is intact (the CAS serves it) but restore must reject it.
        donor, _model = prepare_instance(
            assets, {**s.params, "VHI_COMPLIANCE": 0.5}, seed=s.seed)
        donor.run(EVERY)
        manager.write(instance_key(s), snapshot_simulation(donor),
                      tick=EVERY)

    watch = Stopwatch()
    entries, dump = parallel._execute_group(specs, checkpoint=plan)
    wall = watch.elapsed()
    assert_matches_reference([pair[0] for _tag, pair in entries], specs)
    reg = MetricsRegistry().merge(dump)
    assert reg.value("checkpoint.invalid") == len(specs)
    assert reg.value("checkpoint.resumed") == 0
    busy = sum(reg.value(name) for name in (
        "runner.simulate_s", "runner.batch_setup_s", "runner.assets_s"))
    assert 0 < busy <= wall
    # Build and rebuild are one setup observation, closed before the one
    # simulate observation opens.
    assert reg.count("runner.batch_setup_s") == 1
    assert reg.count("runner.simulate_s") == 1


SRC_CORE = Path(repro.__file__).resolve().parent / "core"


def _step_drivers(root: Path) -> list[str]:
    """``file:function`` of every function calling ``<obj>.step()``."""
    out = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "step"
                   for node in ast.walk(fn)):
                out.append(f"{path.name}:{fn.name}")
    return out


def test_exactly_one_tick_loop_driver_in_core():
    assert _step_drivers(SRC_CORE) == ["runner.py:execute_specs"]


def test_step_driver_lint_actually_detects(tmp_path):
    (tmp_path / "two.py").write_text(
        "def a(sim):\n    sim.step()\n\ndef b(batch):\n"
        "    while True:\n        batch.step()\n\ndef c():\n    pass\n")
    assert _step_drivers(tmp_path) == ["two.py:a", "two.py:b"]
