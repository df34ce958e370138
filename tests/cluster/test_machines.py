"""Table II machine-spec tests."""

from repro.cluster.machines import (
    AccessWindow,
    BRIDGES,
    NIGHTLY_WINDOW,
    RIVANNA,
)


def test_bridges_table_ii():
    assert BRIDGES.n_nodes == 720
    assert BRIDGES.cpus_per_node == 2
    assert BRIDGES.cores_per_cpu == 14
    assert BRIDGES.cores_per_node == 28
    assert BRIDGES.ram_per_node_bytes == 128 * 10**9


def test_bridges_exceeds_20000_cores():
    # Section I: "over 20,000 cores ... dedicated each night".
    assert BRIDGES.total_cores > 20_000


def test_rivanna_table_ii():
    assert RIVANNA.n_nodes == 50
    assert RIVANNA.cores_per_node == 40
    assert RIVANNA.ram_per_node_bytes == 384 * 10**9


def test_rivanna_smaller_than_bridges():
    assert RIVANNA.total_cores < BRIDGES.total_cores


def test_nightly_window():
    assert NIGHTLY_WINDOW.duration_hours == 10.0
    assert NIGHTLY_WINDOW.duration_seconds == 36_000.0
    # 10pm-8am wraps midnight.
    assert NIGHTLY_WINDOW.contains(23.0)
    assert NIGHTLY_WINDOW.contains(3.0)
    assert NIGHTLY_WINDOW.contains(7.9)
    assert not NIGHTLY_WINDOW.contains(12.0)
    assert not NIGHTLY_WINDOW.contains(8.5)


def test_non_wrapping_window():
    w = AccessWindow(start_hour=9.0, duration_hours=4.0)
    assert w.contains(10.0)
    assert not w.contains(14.0)
    assert not w.contains(8.0)
