"""Resilience study: the nightly workload under injected failures.

The paper's pipeline delivered "for over 30 weeks without interruption";
this bench quantifies the margin that requires: the prediction-night job
array is executed with Poisson node failures (requeue-and-rerun recovery)
and the Globus transfers with interruption-restart, measuring how much of
the 10-hour window the recovery overhead consumes.
"""

import time

import numpy as np
import pytest

from repro.checkpoint import CheckpointPlan
from repro.cluster.failures import FaultySlurmSimulator, FlakyGlobusLink
from repro.cluster.machines import BRIDGES, NIGHTLY_WINDOW
from repro.params import GB
from repro.scheduling.metrics import jobs_from_packing
from repro.scheduling.levels import pack_ffdt_dc
from repro.scheduling.wmp import make_nightly_instance


def night_with_failures(mttf_hours, seed=0):
    instance = make_nightly_instance(cells_per_region=6, replicates=8,
                                     seed=seed)
    packed = pack_ffdt_dc(instance)
    jobs = jobs_from_packing(packed)
    sim = FaultySlurmSimulator(
        BRIDGES,
        db_caps=instance.db_caps,
        reserved_nodes=BRIDGES.n_nodes - instance.machine_width,
        node_mttf_hours=mttf_hours,
        rng=np.random.default_rng(seed),
    )
    return sim.run(jobs)


def test_resilience_node_failures(benchmark, save_artifact):
    def sweep():
        out = {}
        for mttf in (1e9, 5000.0, 500.0, 100.0):
            res = night_with_failures(mttf)
            out[mttf] = res
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"{'node MTTF (h)':>14}{'makespan (h)':>14}{'reruns':>8}"
             f"{'overhead':>10}{'fits 10h':>9}"]
    for mttf, res in results.items():
        hours = res.schedule.makespan / 3600
        fits = hours <= NIGHTLY_WINDOW.duration_hours
        lines.append(f"{mttf:>14.0f}{hours:>14.2f}{res.reruns:>8}"
                     f"{res.overhead_fraction:>10.3f}{str(fits):>9}")
    save_artifact("resilience_node_failures", "\n".join(lines))

    clean = results[1e9]
    worst = results[100.0]
    # Everything still completes; overhead grows as MTTF shrinks.
    assert clean.reruns == 0
    assert worst.reruns > 0
    assert worst.schedule.makespan >= clean.schedule.makespan
    # Realistic MTTFs leave the night comfortably inside the window.
    assert results[5000.0].schedule.makespan / 3600 < 10.0
    overheads = [results[m].overhead_fraction
                 for m in (1e9, 5000.0, 500.0, 100.0)]
    assert overheads == sorted(overheads)


def test_resilience_transfer_retries(benchmark, save_artifact):
    def transfers():
        out = {}
        for p_fail in (0.0, 0.2, 0.5):
            link = FlakyGlobusLink(
                "rivanna", "bridges", failure_probability=p_fail,
                max_retries=30, rng=np.random.default_rng(8))
            durations = [
                link.transfer(f"xfer{i}", "rivanna", "bridges",
                              4 * GB).duration
                for i in range(20)
            ]
            out[p_fail] = (float(np.mean(durations)),
                           len(link.retry_log))
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
    from repro.obs import MetricsRegistry
    from repro.resilience import FaultPlan, RetryPolicy

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
