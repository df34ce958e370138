"""Memoized calibration: repeat runs execute zero simulations, and the
onset-alignment helper matches the historical inline logic."""

import numpy as np
import pytest

from repro.core.calibration_wf import (
    align_onset,
    run_calibration_workflow,
    run_iterative_calibration,
)
from repro.core.runner import load_region_assets, observed_series
from repro.store.cas import ContentStore
from repro.store.ledger import RunLedger, replay_ledger

ARGS = dict(n_cells=6, n_days=40, scale=1e-3, seed=11,
            mcmc_samples=120, mcmc_burn_in=120)


@pytest.fixture()
def store(tmp_path):
    return ContentStore(tmp_path / "store")


def test_repeat_workflow_serves_everything_from_store(store):
    first = run_calibration_workflow("VT", **ARGS, store=store,
                                     parallel=False)
    assert store.metrics.value("store.misses") == ARGS["n_cells"]
    assert store.metrics.value("store.hits") == 0

    second = run_calibration_workflow("VT", **ARGS, store=store,
                                      parallel=False)
    # The acceptance criterion: zero simulation executions on the repeat.
    # no new misses
    assert store.metrics.value("store.misses") == ARGS["n_cells"]
    assert store.metrics.value("store.hits") == ARGS["n_cells"]
    assert store.metrics.value("store.puts") == ARGS["n_cells"]
    # Cached and uncached paths are bit-identical.
    np.testing.assert_array_equal(first.sim_series, second.sim_series)
    np.testing.assert_array_equal(first.observed, second.observed)
    np.testing.assert_array_equal(first.prior_design, second.prior_design)
    assert first.onset_day == second.onset_day


def test_uncached_and_cached_series_bit_identical(store):
    plain = run_calibration_workflow("VT", **ARGS, parallel=False)
    run_calibration_workflow("VT", **ARGS, store=store, parallel=False)
    cached = run_calibration_workflow("VT", **ARGS, store=store,
                                      parallel=False)
    np.testing.assert_array_equal(plain.sim_series, cached.sim_series)
    assert plain.sim_series.dtype == cached.sim_series.dtype


def test_workflow_ledger_journal(store, tmp_path):
    ledger = RunLedger(tmp_path / "cal.jsonl")
    run_calibration_workflow("VT", **ARGS, store=store, ledger=ledger,
                             parallel=False)
    run_calibration_workflow("VT", **ARGS, store=store, ledger=ledger,
                             parallel=False)
    replay = replay_ledger(tmp_path / "cal.jsonl")
    assert replay.count("instance_completed") == ARGS["n_cells"]
    assert replay.count("cache_hit") == ARGS["n_cells"]


def test_iterative_rounds_reuse_across_calls(store):
    kwargs = dict(n_rounds=2, n_cells=5, n_days=30, scale=1e-3, seed=13,
                  mcmc_samples=100, mcmc_burn_in=100)
    first = run_iterative_calibration("VT", **kwargs, store=store,
                                      parallel=False)
    executed = store.metrics.value("store.misses")
    assert executed == first[-1].sim_series.shape[0]  # every row simulated
    second = run_iterative_calibration("VT", **kwargs, store=store,
                                       parallel=False)
    # the repeat call runs nothing
    assert store.metrics.value("store.misses") == executed
    np.testing.assert_array_equal(first[-1].sim_series,
                                  second[-1].sim_series)


def test_parallel_and_serial_calibration_identical(store, tmp_path):
    serial = run_calibration_workflow("VT", **ARGS, parallel=False)
    par = run_calibration_workflow(
        "VT", **ARGS, store=ContentStore(tmp_path / "p"), parallel=True,
        max_workers=2)
    np.testing.assert_array_equal(serial.sim_series, par.sim_series)


# --- align_onset ------------------------------------------------------------


def test_align_onset_matches_inline_logic():
    assets = load_region_assets("VT", 1e-3, 11)
    n_days = 40
    observed, onset = align_onset(assets.truth, 1e-3, n_days)

    full = observed_series(assets.truth, 1e-3, assets.truth.n_days - 1)
    nz = np.flatnonzero(full >= 1.0)
    expect_onset = int(nz[0]) if nz.size else 0
    expect_onset = min(expect_onset, full.shape[0] - (n_days + 1))
    assert onset == expect_onset
    np.testing.assert_array_equal(observed,
                                  full[onset: onset + n_days + 1])


def test_align_onset_window_shape():
    assets = load_region_assets("VT", 1e-3, 11)
    for n_days in (10, 40, 80):
        observed, onset = align_onset(assets.truth, 1e-3, n_days)
        assert observed.shape == (n_days + 1,)
        assert 0 <= onset <= assets.truth.n_days - (n_days + 1)


def test_align_onset_first_point_is_onset_case():
    """The window starts at the first day with >= 1 scaled case (when one
    exists and the window fits)."""
    assets = load_region_assets("VA", 1e-3, 11)
    observed, onset = align_onset(assets.truth, 1e-3, 40)
    full = observed_series(assets.truth, 1e-3, assets.truth.n_days - 1)
    if onset > 0 and (full >= 1.0).any() and full[onset] >= 1.0:
        assert (full[:onset] < 1.0).all()


def test_workflow_onset_consistent_with_helper():
    cal = run_calibration_workflow("VT", **ARGS, parallel=False)
    observed, onset = align_onset(cal.assets.truth, ARGS["scale"],
                                  ARGS["n_days"])
    assert cal.onset_day == onset
    np.testing.assert_array_equal(cal.observed, observed)
