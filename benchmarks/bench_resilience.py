"""Resilience study: the nightly workload under injected failures.

The paper's pipeline delivered "for over 30 weeks without interruption";
this bench quantifies the margin that requires: the prediction-night job
array is executed under the ``node.fail`` fault site (Poisson node loss,
requeue-and-rerun recovery) and the Globus transfers under
``transfer.fail`` (interruption-restart), the same ``FaultPlan`` /
``RetryPolicy`` model ``repro night --inject`` uses, measuring how much of
the 10-hour window the recovery overhead consumes.
"""

import time

import numpy as np
import pytest

from repro.checkpoint import CheckpointPlan
from repro.cluster.globus import GlobusLink
from repro.cluster.machines import NIGHTLY_WINDOW
from repro.obs import MetricsRegistry
from repro.params import GB
from repro.resilience import DEFAULT_RETRY_POLICY, FaultPlan, RetryPolicy
from repro.scheduling.levels import pack_ffdt_dc
from repro.scheduling.metrics import execute_packing
from repro.scheduling.wmp import make_nightly_instance

#: Node-failure claims are stated over this many fault seeds: at MTTF
#: 5000 h a night expects ~0.1 failures, so one seed cannot order the
#: overheads of neighbouring MTTFs.
FAULT_SEEDS = range(8)
MTTFS_H = (1e9, 5000.0, 500.0, 100.0)


def night_with_failures(packed, mttf_hours, seed):
    """One night's schedule and registry under ``node.fail`` at
    ``mttf_hours``, retried under the budget ``repro night`` uses."""
    reg = MetricsRegistry()
    schedule = execute_packing(
        packed, metrics=reg,
        faults=FaultPlan.parse([f"node.fail:mttf={mttf_hours}"], seed=seed),
        retry=DEFAULT_RETRY_POLICY)
    overhead = reg.value("slurm.wasted_node_s") / schedule.busy_node_seconds
    return {"hours": schedule.makespan / 3600,
            "reruns": int(reg.value("slurm.reruns")),
            "overhead": overhead}


def test_resilience_node_failures(benchmark, save_artifact):
    packed = pack_ffdt_dc(make_nightly_instance(cells_per_region=6,
                                                replicates=8, seed=0))
    clean_hours = execute_packing(packed).makespan / 3600

    def sweep():
        return {mttf: [night_with_failures(packed, mttf, s)
                       for s in FAULT_SEEDS]
                for mttf in MTTFS_H}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"{len(packed.instance.tasks)} jobs, {len(FAULT_SEEDS)} fault "
             f"seeds per MTTF; clean makespan {clean_hours:.2f} h",
             f"{'node MTTF (h)':>14}{'mean (h)':>10}{'worst (h)':>11}"
             f"{'reruns':>8}{'mean overhead':>15}{'fits 10h':>9}"]
    mean_overhead = {}
    for mttf, runs in results.items():
        mean_overhead[mttf] = float(np.mean([r["overhead"] for r in runs]))
        worst = max(r["hours"] for r in runs)
        fits = worst <= NIGHTLY_WINDOW.duration_hours
        lines.append(
            f"{mttf:>14.0f}{np.mean([r['hours'] for r in runs]):>10.2f}"
            f"{worst:>11.2f}{sum(r['reruns'] for r in runs):>8}"
            f"{mean_overhead[mttf]:>15.5f}{str(fits):>9}")
    save_artifact("resilience_node_failures", "\n".join(lines))

    clean, worst = results[1e9], results[100.0]
    # Everything still completes; overhead grows as MTTF shrinks.
    assert all(r["reruns"] == 0 and r["hours"] == clean_hours
               for r in clean)
    assert sum(r["reruns"] for r in worst) > 0
    assert min(r["hours"] for r in worst) >= clean_hours
    # Realistic MTTFs leave the night comfortably inside the window.
    assert max(r["hours"] for r in results[5000.0]) < 10.0
    overheads = [mean_overhead[m] for m in MTTFS_H]
    assert overheads == sorted(overheads)


def test_resilience_transfer_retries(benchmark, save_artifact):
    def transfers():
        out = {}
        for p_fail in (0.0, 0.2, 0.5):
            link = GlobusLink(
                "rivanna", "bridges",
                faults=FaultPlan.parse([f"transfer.fail:p={p_fail}"],
                                       seed=8),
                retry=RetryPolicy(max_attempts=31))
            durations = [
                link.transfer(f"xfer{i}", "rivanna", "bridges",
                              4 * GB).duration
                for i in range(20)
            ]
            out[p_fail] = (float(np.mean(durations)),
                           int(link.metrics.value("globus.retries")))
        return out

    results = benchmark.pedantic(transfers, rounds=1, iterations=1)
    lines = [f"{'P(fail)':>8}{'mean duration (s)':>19}{'retries':>9}"]
    for p, (dur, retries) in results.items():
        lines.append(f"{p:>8.1f}{dur:>19.1f}{retries:>9}")
    save_artifact("resilience_transfers", "\n".join(lines))

    assert results[0.0][1] == 0
    assert results[0.5][1] > results[0.2][1]
    assert results[0.5][0] > results[0.0][0]
    # Even at 50% interruption probability the nightly config volume
    # (<= 8.7GB) moves within minutes, far inside the window.
    assert results[0.5][0] < 1800


def test_resilience_checkpointed_retry(benchmark, save_artifact, tmp_path):
    """Checkpointed resume vs restart-from-zero on a live simulation.

    A 100-tick instance is killed at tick 95 — the worst preemption
    short of completion.  Without checkpoints the retry re-executes 95
    already-computed ticks; with ``--checkpoint-every 10`` it resumes
    from the tick-90 snapshot and re-executes 5.  The undisturbed legs
    price the snapshot-write overhead the saving costs.
    """
    from repro.core.parallel import InstanceSpec, supervise_instances

    DAYS, CRASH, EVERY = 100, 95, 10
    retry = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)

    def leg(every, crash, root):
        plan = (CheckpointPlan(store_root=str(root), every=every)
                if every else None)
        faults = (FaultPlan.parse(
            [f"worker.crash_mid_run:tick={crash},times=1"], seed=0)
            if crash is not None else None)
        reg = MetricsRegistry()
        spec = InstanceSpec(region_code="VT", params={"TAU": 0.3},
                            n_days=DAYS, scale=1e-3, seed=11,
                            label="ck-bench", asset_seed=0)
        t0 = time.perf_counter()
        res = supervise_instances([spec], parallel=False, retry=retry,
                                  faults=faults, registry=reg,
                                  checkpoint=plan)
        wall = time.perf_counter() - t0
        assert res.ok
        # A crashed attempt's counters die with it (by design), so the
        # sink's tick count is the *successful* attempt's alone; ticks
        # past the crash point were never computed before, the rest is
        # re-execution.
        final_ticks = reg.value("runner.ticks_executed")
        re_executed = (max(0, final_ticks - (DAYS - crash))
                       if crash is not None else 0)
        return {"wall": wall, "re_executed": re_executed,
                "saved": res.ticks_saved}

    def scenarios():
        return {
            "clean every=0": leg(0, None, tmp_path / "a"),
            f"clean every={EVERY}": leg(EVERY, None, tmp_path / "b"),
            f"crash@{CRASH} every=0": leg(0, CRASH, tmp_path / "c"),
            f"crash@{CRASH} every={EVERY}": leg(EVERY, CRASH,
                                                tmp_path / "d"),
        }

    results = benchmark.pedantic(scenarios, rounds=1, iterations=1)
    base = results["clean every=0"]["wall"]
    lines = [f"{'scenario':>20}{'wall (ms)':>10}{'overhead':>10}"
             f"{'re-executed':>13}{'ticks saved':>13}"]
    for name, r in results.items():
        lines.append(f"{name:>20}{r['wall'] * 1e3:>10.1f}"
                     f"{r['wall'] / base - 1:>+10.1%}"
                     f"{r['re_executed']:>13}{r['saved']:>13}")
    save_artifact("resilience_checkpointed_retry", "\n".join(lines))

    restart = results[f"crash@{CRASH} every=0"]
    resumed = results[f"crash@{CRASH} every={EVERY}"]
    # The acceptance gate: resumed retries re-execute <= 15% of the
    # ticks a restart-from-zero retry re-executes.
    assert restart["re_executed"] == CRASH
    assert resumed["re_executed"] <= 0.15 * restart["re_executed"]
    assert resumed["saved"] == (CRASH // EVERY) * EVERY
    assert restart["saved"] == 0
