"""Result-store memoization: the economics of never redoing finished work.

The paper's pipeline re-ran overlapping designs night after night for 30+
weeks; `repro.store` makes repeated work free.  This bench measures the
cold/warm asymmetry of a memoized calibration round (the warm pass serves
every instance from the content-addressed store, executing zero
simulations) and the resumed-night makespan (a fully-journaled night
re-packs nothing).
"""

import time

import numpy as np

from repro.core.calibration_wf import _design_specs, run_calibration_workflow
from repro.core.designs import (
    ExperimentDesign,
    case_study_space,
    factorial_cells,
)
from repro.core.orchestrator import orchestrate_night
from repro.store import ContentStore, RunLedger, run_instances_memoized

CAL_ARGS = dict(n_cells=12, n_days=60, scale=1e-3, seed=29,
                mcmc_samples=200, mcmc_burn_in=200)


def test_cold_vs_warm_calibration(benchmark, tmp_path, save_artifact):
    store = ContentStore(tmp_path / "store")

    def rounds():
        t0 = time.perf_counter()
        cold = run_calibration_workflow("VA", **CAL_ARGS, store=store)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_calibration_workflow("VA", **CAL_ARGS, store=store)
        t_warm = time.perf_counter() - t0

        # Isolate the instance-execution portion the store short-circuits
        # (the MCMC posterior pass runs either way).
        space = case_study_space()
        specs = _design_specs("VA", space, cold.prior_design,
                              n_days=CAL_ARGS["n_days"],
                              scale=CAL_ARGS["scale"],
                              seed=CAL_ARGS["seed"], seed_offset=1000,
                              label_prefix="bench")
        fresh = ContentStore(tmp_path / "fresh")
        t0 = time.perf_counter()
        run_instances_memoized(specs, store=fresh, parallel=False)
        t_exec_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_instances_memoized(specs, store=fresh, parallel=False)
        t_exec_warm = time.perf_counter() - t0
        return cold, warm, t_cold, t_warm, t_exec_cold, t_exec_warm

    cold, warm, t_cold, t_warm, t_exec_cold, t_exec_warm = \
        benchmark.pedantic(rounds, rounds=1, iterations=1)

    hits, misses, puts = (int(store.metrics.value(f"store.{name}"))
                          for name in ("hits", "misses", "puts"))
    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    exec_speedup = (t_exec_cold / t_exec_warm if t_exec_warm > 0
                    else float("inf"))
    save_artifact(
        "store_memoization",
        "memoized calibration round (12 cells, VA, 60 days)\n"
        f"cold round: {t_cold:.2f}s ({misses} misses, "
        f"{puts} blobs stored)\n"
        f"warm round: {t_warm:.2f}s ({hits} hits, "
        f"0 simulations executed)\n"
        f"round speedup: {speedup:.2f}x (MCMC runs either way)\n"
        f"instance execution cold: {t_exec_cold:.3f}s  "
        f"warm: {t_exec_warm:.3f}s  ({exec_speedup:.0f}x)\n"
        f"store: {len(store)} blobs, {store.total_bytes():,} bytes")

    # The warm pass executed nothing: every instance was a hit.
    assert misses == CAL_ARGS["n_cells"]
    assert hits == CAL_ARGS["n_cells"]
    # ...and is bit-identical to the cold pass.
    np.testing.assert_array_equal(cold.sim_series, warm.sim_series)
    assert t_warm < t_cold
    # Serving blobs beats running simulations by a wide margin.
    assert exec_speedup > 5.0


def test_resumed_night_repacks_nothing(benchmark, tmp_path, save_artifact):
    design = ExperimentDesign(
        name="bench-night",
        cells=factorial_cells({"TAU": [0.2, 0.25, 0.3]}),
        regions=("VA", "NC", "MD", "VT"),
        replicates=5,
    )
    path = tmp_path / "night.jsonl"

    def nights():
        with RunLedger(path) as ledger:
            full = orchestrate_night(design, seed=8, ledger=ledger)
        with RunLedger(path) as ledger:
            resumed = orchestrate_night(design, seed=8, ledger=ledger,
                                        resume=True)
        return full, resumed

    full, resumed = benchmark.pedantic(nights, rounds=1, iterations=1)
    save_artifact(
        "store_resume_night",
        f"design: {design.n_simulations} simulations "
        f"({design.n_cells} cells x {design.n_regions} regions x "
        f"{design.replicates} reps)\n"
        f"full night: makespan {full.remote_hours:.2f}h, "
        f"{len(full.schedule.records)} jobs\n"
        f"resumed night: makespan {resumed.remote_hours:.2f}h, "
        f"{len(resumed.schedule.records)} jobs re-executed, "
        f"{resumed.n_resumed} served from the ledger")

    assert len(full.schedule.records) == design.n_simulations
    assert len(resumed.schedule.records) == 0
    assert resumed.n_resumed == design.n_simulations
    assert resumed.schedule.makespan == 0.0
