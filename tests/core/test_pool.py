"""The fan-out's long-lived pool: reuse rule, retirement, submission order.

One pool per process, forked by the first pooled fan-out and lent to every
later one while the fork is still valid (same size, same ``REPRO_*``
environment, every needed bundle resident at the fork).  These tests pin
the counters the program publishes (``parallel.pool_starts`` /
``pool_reuses`` / ``pool_retired``) against the worker pids the operating
system reports, and the order groups are submitted in.
"""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core import parallel
from repro.core.parallel import (
    InstanceSpec,
    close_pool,
    run_instances,
    supervise_instances,
)
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan, RetryPolicy
from repro.store.files import pid_alive

pytestmark = pytest.mark.skipif(
    mp.get_start_method() != "fork",
    reason="the reuse rule is about what fork workers inherited")


def make_specs(n=4, region="VT", n_days=5, asset_seed=0, tag="p"):
    return [InstanceSpec(region_code=region, params={"TAU": 0.3},
                         n_days=n_days, scale=1e-3, seed=100 + i,
                         label=f"{tag}-{region}-{i}", asset_seed=asset_seed)
            for i in range(n)]


def two_groups(**kw):
    return make_specs(region="VT", **kw) + make_specs(region="WY", **kw)


def worker_pids():
    return {p.pid for p in mp.active_children()}


def pooled(specs, reg, **kw):
    return supervise_instances(specs, parallel=True, max_workers=2,
                               registry=reg, **kw)


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.spec == w.spec
        assert g.confirmed.tobytes() == w.confirmed.tobytes()
        assert g.attack_rate == w.attack_rate
        assert g.transitions == w.transitions


@pytest.mark.fast
def test_equal_fanouts_share_one_pool_and_match_serial():
    specs = two_groups()
    reg = MetricsRegistry()
    first = pooled(specs, reg)
    pids = worker_pids()
    second = pooled(specs, reg)
    assert len(pids) == 2 and worker_pids() == pids
    assert reg.value("parallel.pool_starts") == 1
    assert reg.value("parallel.pool_reuses") == 1
    assert reg.value("parallel.pool_retired") == 0
    assert 0 <= reg.value("parallel.predict_err") < 1
    serial = run_instances(specs, parallel=False)
    assert_same_bytes(first.results, serial)
    assert_same_bytes(second.results, serial)


@pytest.mark.fast
def test_refork_exactly_when_the_fork_went_stale(monkeypatch, tmp_path):
    reg = MetricsRegistry()

    def starts_after(specs, **kw):
        kw.setdefault("max_workers", 2)
        assert supervise_instances(specs, parallel=True, registry=reg,
                                   **kw).ok
        return reg.value("parallel.pool_starts")

    assert starts_after(two_groups()) == 1
    # None of these is a reason to fork again: another width, other
    # seeds, a retry policy, a fault plan, a non-REPRO variable.
    assert starts_after(make_specs(3) + make_specs(1, "WY")) == 1
    monkeypatch.setenv("UNRELATED_VARIABLE", "1")
    assert starts_after(
        two_groups(tag="q"), retry=RetryPolicy(max_attempts=2),
        faults=FaultPlan.parse(["worker.slow:delay=0.001"], seed=0)) == 1
    # Each of these is.
    assert starts_after(two_groups(), max_workers=3) == 2
    assert starts_after(two_groups()) == 3  # ... and back to two workers
    monkeypatch.setenv("REPRO_TRACE_PATH", str(tmp_path / "t.jsonl"))
    assert starts_after(two_groups()) == 4
    assert starts_after(two_groups(asset_seed=7)) == 5  # new asset keys
    # The re-forked pool holds old and new bundles alike.
    assert starts_after(two_groups() + two_groups(asset_seed=7)) == 5
    assert reg.value("parallel.pool_reuses") == 3
    assert reg.value("parallel.pool_retired") == 0


@pytest.mark.fast
def test_crash_rebuilds_once_and_the_rebuilt_pool_is_lent_again():
    specs = two_groups()
    reg = MetricsRegistry()
    res = pooled(specs, reg, retry=RetryPolicy(max_attempts=2),
                 faults=FaultPlan.parse(
                     [f"worker.crash:times=1,match={specs[0].label}"],
                     seed=0))
    assert res.ok and res.pool_rebuilds == 1
    assert reg.value("parallel.pool_starts") == 2
    assert reg.value("parallel.pool_retired") == 1
    rebuilt = worker_pids()
    again = pooled(specs, reg)
    assert again.pool_rebuilds == 0 and worker_pids() == rebuilt
    assert reg.value("parallel.pool_starts") == 2
    assert reg.value("parallel.pool_reuses") == 1
    assert_same_bytes(again.results, res.results)


@pytest.mark.fast
def test_worker_lost_while_idle_costs_one_rebuild():
    specs = two_groups()
    reg = MetricsRegistry()
    want = pooled(specs, reg).results
    os.kill(min(worker_pids()), signal.SIGKILL)
    deadline = time.monotonic() + 5
    while len(worker_pids()) == 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    res = pooled(specs, reg)
    assert res.ok and res.pool_rebuilds == 1
    assert_same_bytes(res.results, want)
    assert reg.value("parallel.pool_starts") == 2


def test_abandoned_attempt_retires_the_pool_and_close_joins_it():
    specs = two_groups()
    reg = MetricsRegistry()
    res = pooled(
        specs, reg,
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0,
                          timeout_s=0.25),
        faults=FaultPlan.parse(
            [f"worker.slow:delay=1.0,times=1,match={specs[0].label}"],
            seed=0))
    # The slow attempt was abandoned, not interrupted: its worker is
    # still sleeping, so the pool cannot be lent again.
    assert res.ok and res.retries == 1
    assert reg.value("parallel.pool_retired") == 1
    pids = worker_pids()
    assert pids
    close_pool()
    assert mp.active_children() == []
    assert not any(pid_alive(pid) for pid in pids)
    assert pooled(specs, reg).ok  # the next fan-out simply forks anew
    assert reg.value("parallel.pool_starts") == 2


@pytest.mark.fast
def test_forked_child_sees_no_inherited_pool():
    assert pooled(two_groups(), MetricsRegistry()).ok
    assert parallel._POOL._pool is not None
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        clean = (parallel._POOL._pool is None
                 and not parallel._POOL._lock.locked())
        os._exit(0 if clean else 1)
    assert os.waitpid(pid, 0)[1] == 0


@pytest.mark.fast
def test_close_pool_is_idempotent_and_the_next_fanout_forks_anew():
    close_pool()
    reg = MetricsRegistry()
    assert pooled(two_groups(), reg).ok
    close_pool()
    close_pool()
    assert mp.active_children() == []
    assert pooled(two_groups(), reg).ok
    assert reg.value("parallel.pool_starts") == 2
    assert reg.value("parallel.pool_reuses") == 0


@pytest.mark.fast
def test_groups_are_submitted_longest_predicted_first(monkeypatch):
    """VA, CO, KS, VT by network size, whatever the input order; a group
    whose bundle cannot load predicts nothing, goes last, and is its own
    supervised failure."""
    submitted = []
    real = parallel.supervise_map

    def spy(fn, items, **kw):
        if kw.get("submit_order") is not None:
            submitted.append([items[i][0].region_code
                              for i in kw["submit_order"]])
        return real(fn, items, **kw)

    monkeypatch.setattr(parallel, "supervise_map", spy)
    specs = [s for region in ("ZZ", "VT", "KS", "CO", "VA")
             for s in make_specs(16, region, n_days=1)]
    res = pooled(specs, MetricsRegistry())
    assert submitted == [["VA", "CO", "KS", "VT", "ZZ"]]
    assert [r is None for r in res.results] == [True] * 16 + [False] * 64
    assert len(res.quarantined) == 16
    # Lanes and days weigh in: 16 VT lanes outweigh one VA lane-day.
    submitted.clear()
    pooled(make_specs(1, "VA", n_days=1) + make_specs(16, "VT", n_days=20),
           MetricsRegistry())
    assert submitted == [["VT", "VA"]]


def test_exit_leaves_no_worker_behind():
    """A process that exits with the pool alive leaves no worker behind:
    ``close_pool`` runs at exit and joins them."""
    script = (
        "import multiprocessing as mp\n"
        "from repro.core.parallel import InstanceSpec, run_instances\n"
        "specs = [InstanceSpec(region_code=r, params={'TAU': 0.3},\n"
        "                      n_days=3, scale=1e-3, seed=i, label=r,\n"
        "                      asset_seed=3)\n"
        "         for i, r in enumerate(('VT', 'WY'))]\n"
        "run_instances(specs, parallel=True, max_workers=2)\n"
        "print(*[p.pid for p in mp.active_children()])\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    pids = [int(p) for p in out.stdout.split()]
    assert len(pids) == 2 and not any(pid_alive(p) for p in pids)
