"""Simulated-MPI execution-profile tests (strong scaling shapes)."""

import numpy as np
import pytest

from repro.epihiper import (
    partition_threshold,
    simulate_rank_execution,
    strong_scaling_curve,
)


def test_serial_profile_has_no_comm(va_run):
    _pop, net, result = va_run
    prof = simulate_rank_execution(result, net, partition_threshold(net, 1))
    assert prof.comm_time == 0.0
    assert prof.cut_edges == 0
    assert prof.n_ranks == 1


def test_compute_time_decreases_with_ranks(va_run):
    _pop, net, result = va_run
    profs = strong_scaling_curve(result, net, [1, 2, 4, 8])
    computes = [p.compute_time for p in profs]
    assert computes == sorted(computes, reverse=True)


def test_comm_time_increases_with_ranks(va_run):
    _pop, net, result = va_run
    profs = strong_scaling_curve(result, net, [2, 4, 8, 16])
    comms = [p.comm_time for p in profs]
    assert comms == sorted(comms)


def test_speedup_then_slowdown(va_run):
    """The Figure 7 (middle) shape: improvement, then diminishing returns,
    eventually slower than some earlier point."""
    _pop, net, result = va_run
    profs = strong_scaling_curve(result, net, [1, 2, 4, 8, 16, 64, 256, 1024])
    base = profs[0]
    speedups = [p.speedup_over(base) for p in profs]
    assert speedups[1] > 1.2  # 2 ranks help
    assert max(speedups) > 3.0
    # Well past the optimum, adding ranks hurts.
    assert speedups[-1] < max(speedups) * 0.8


def test_halo_bytes_scale_with_cut(va_run):
    _pop, net, result = va_run
    p2 = simulate_rank_execution(result, net, partition_threshold(net, 2))
    p16 = simulate_rank_execution(result, net, partition_threshold(net, 16))
    assert p16.cut_edges >= p2.cut_edges
    assert p16.halo_bytes >= p2.halo_bytes


def test_efficiency_below_one(va_run):
    _pop, net, result = va_run
    base = simulate_rank_execution(result, net, partition_threshold(net, 1))
    p8 = simulate_rank_execution(result, net, partition_threshold(net, 8))
    assert 0.0 < p8.speedup_over(base) / p8.n_ranks <= 1.0


def test_partition_mismatch_rejected(va_run, vt_assets):
    _pop, net, result = va_run
    _vpop, vnet = vt_assets
    bad = partition_threshold(vnet, 4)
    with pytest.raises(ValueError, match="match"):
        simulate_rank_execution(result, net, bad)


def test_per_rank_edges_match_partition(va_run):
    _pop, net, result = va_run
    part = partition_threshold(net, 8)
    prof = simulate_rank_execution(result, net, part)
    np.testing.assert_array_equal(prof.per_rank_edges, part.edge_counts())
