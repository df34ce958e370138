"""Globus transfer-model tests."""

import pytest

from repro.cluster.globus import (
    GlobusLink,
    STARTUP_SECONDS,
    TABLE_II_SIZES,
)
from repro.params import GB, MB, TB
from repro.resilience import FaultPlan, RetryPolicy


@pytest.fixture()
def link():
    return GlobusLink("rivanna", "bridges", bandwidth=1.0 * GB)


def test_duration_model(link):
    assert link.duration_of(0) == STARTUP_SECONDS
    assert link.duration_of(10 * GB) == pytest.approx(
        STARTUP_SECONDS + 10.0)


def test_manual_delay():
    link = GlobusLink("a", "b", bandwidth=1.0 * GB, manual_delay=600.0)
    assert link.duration_of(0) == STARTUP_SECONDS + 600.0


def test_transfer_ledger(link):
    link.transfer("configs", "rivanna", "bridges", 2 * GB)
    link.transfer("summary", "bridges", "rivanna", 5 * GB)
    assert link.bytes_moved() == 7 * GB
    assert link.bytes_moved(src="rivanna") == 2 * GB
    assert link.bytes_moved(src="bridges", dst="rivanna") == 5 * GB
    assert len(link.records) == 2


def test_transfer_validation(link):
    with pytest.raises(ValueError, match="unknown endpoint"):
        link.transfer("x", "rivanna", "elsewhere", 1)
    with pytest.raises(ValueError, match="differ"):
        link.transfer("x", "rivanna", "rivanna", 1)
    with pytest.raises(ValueError, match="non-negative"):
        link.duration_of(-1)


def test_record_timing(link):
    rec = link.transfer("x", "rivanna", "bridges", GB)
    assert rec.duration == pytest.approx(STARTUP_SECONDS + 1.0)


def test_summary_renders(link):
    link.transfer("x", "rivanna", "bridges", 3 * GB)
    text = link.summary()
    assert "rivanna -> bridges: 3.0GB" in text


def test_table_ii_ranges_sane():
    lo, hi = TABLE_II_SIZES["daily_configurations"]
    assert lo == 100 * MB and hi == pytest.approx(8.7 * GB)
    lo, hi = TABLE_II_SIZES["raw_outputs"]
    assert lo == 20 * GB and hi == pytest.approx(3.5 * TB)
    assert TABLE_II_SIZES["traits_and_networks"] == (2 * TB, 2 * TB)


def test_one_time_staging_fits_a_day(link):
    """The 2TB one-time staging takes hours, not days, at 10 Gbit/s."""
    hours = link.duration_of(2 * TB) / 3600
    assert 0.3 < hours < 24


def test_interrupted_transfer_charges_wasted_time_once_in_the_ledger():
    """Each interrupted attempt wastes 10-90 % of the transfer before the
    restart; the retried transfer is one ledger record carrying it."""
    link = GlobusLink("rivanna", "bridges", bandwidth=1.0 * GB,
                      faults=FaultPlan.parse(["transfer.fail:times=2"]),
                      retry=RetryPolicy(max_attempts=3))
    rec = link.transfer("configs", "rivanna", "bridges", 10 * GB)
    base = link.duration_of(10 * GB)
    assert len(link.records) == 1
    assert 1.2 * base <= rec.duration <= 2.8 * base
    assert link.metrics.value("globus.transfers") == 1
    assert link.metrics.value("globus.retries") == 2
    assert link.bytes_moved() == 10 * GB


def test_faulted_link_still_validates_endpoints():
    link = GlobusLink("rivanna", "bridges",
                      faults=FaultPlan.parse(["transfer.fail"]),
                      retry=RetryPolicy(max_attempts=5))
    with pytest.raises(ValueError, match="unknown endpoint"):
        link.transfer("x", "a", "b", GB)
    assert link.metrics.value("faults.transfer.fail") == 0
