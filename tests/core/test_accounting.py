"""Table I / Table II accounting tests."""

import pytest

from repro.core.accounting import (
    account_workflow,
    raw_bytes_per_simulation,
    table_i,
)
from repro.core.designs import (
    calibration_design,
    economic_design,
    prediction_design,
)
from repro.params import GB, TB


def test_economic_row_matches_table_i():
    acct = account_workflow(economic_design())
    assert acct.n_simulations == 9180
    # Paper: ~3TB raw, ~2.5GB summary, ~1e9 summary entries.
    assert 2 * TB < acct.raw_bytes < 4.5 * TB
    assert 1.5 * GB < acct.summary_bytes < 3.5 * GB
    assert 0.7e9 < acct.summary_entries < 1.3e9


def test_calibration_row_matches_table_i():
    acct = account_workflow(calibration_design(seed=0))
    assert acct.n_simulations == 15300
    # Paper: ~5TB raw, ~4GB summary, ~1.5e9 entries.
    assert 3.5 * TB < acct.raw_bytes < 6.5 * TB
    assert 3 * GB < acct.summary_bytes < 5.5 * GB
    assert 1.2e9 < acct.summary_entries < 1.8e9


def test_prediction_row_matches_table_i():
    acct = account_workflow(prediction_design())
    assert acct.n_simulations == 9180
    # Paper: ~1TB raw (dendogram records), ~2.5GB summary.
    assert 0.5 * TB < acct.raw_bytes < 2 * TB
    assert 1.5 * GB < acct.summary_bytes < 3.5 * GB


def test_raw_bytes_scale_with_region():
    assert (raw_bytes_per_simulation("CA")
            > 10 * raw_bytes_per_simulation("WY"))


def test_raw_record_modes():
    t = raw_bytes_per_simulation("VA", raw_record="transition")
    d = raw_bytes_per_simulation("VA", raw_record="dendogram")
    assert t != d
    with pytest.raises(ValueError):
        raw_bytes_per_simulation("VA", raw_record="bogus")


def test_multi_million_transitions_per_simulation():
    """Section III: simulations emit multi-million state transitions."""
    from repro.core.accounting import (
        BYTES_PER_TREE_ENTRY,
        TRANSITIONS_PER_INFECTION,
    )
    from repro.params import BYTES_PER_TRANSITION
    raw = raw_bytes_per_simulation("VA")
    transitions = raw / BYTES_PER_TRANSITION
    assert transitions > 5e6


def test_summary_bytes_per_simulation():
    acct = account_workflow(economic_design())
    per_sim = acct.summary_bytes / acct.n_simulations
    # 365 x 90 x 3 entries x ~2.7 bytes ~ 266KB.
    assert 200_000 < per_sim < 350_000


def test_table_renders():
    rows = [account_workflow(d) for d in
            (economic_design(), prediction_design())]
    text = table_i(rows)
    assert "economic" in text and "prediction" in text
    assert "TB" in text
