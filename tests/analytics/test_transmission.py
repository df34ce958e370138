"""Transmission-tree analytics tests."""

import numpy as np
import pytest

from repro.analytics.transmission import (
    effective_r_series,
    generation_intervals,
    offspring_counts,
    transmission_stats,
)
from repro.epihiper.output import TransitionRecorder

EXPOSED = 1


def build_log(rows):
    """rows: (tick, pid, state, infector)."""
    rec = TransitionRecorder()
    for tick, pid, state, infector in rows:
        rec.record_chunks(np.array([tick], np.int32),
                          np.array([pid], np.int64),
                          np.array([state], np.int8),
                          np.array([infector], np.int64))
    return rec.finalize()


@pytest.fixture()
def chain_log():
    # Seed 1 at t=0; infects 2 at t=4 and 3 at t=6; 2 infects 4 at t=9.
    return build_log([
        (0, 1, EXPOSED, -1),
        (4, 2, EXPOSED, 1),
        (6, 3, EXPOSED, 1),
        (9, 4, EXPOSED, 2),
    ])


def test_generation_intervals(chain_log):
    gi = generation_intervals(chain_log, EXPOSED)
    assert sorted(gi.tolist()) == [4, 5, 6]  # 4-0, 6-0, 9-4


def test_offspring_counts(chain_log):
    off = offspring_counts(chain_log, EXPOSED)
    # Person 1 caused 2; person 2 caused 1; persons 3 and 4 caused 0.
    assert off.tolist() == [2, 1, 0, 0]


def test_transmission_stats(chain_log):
    stats = transmission_stats(chain_log, EXPOSED)
    assert stats.n_transmissions == 3
    assert stats.mean_generation_interval == pytest.approx(5.0)
    assert stats.offspring_mean == pytest.approx(0.75)


def test_effective_r_series(chain_log):
    r = effective_r_series(chain_log, EXPOSED, n_days=10, window=1)
    assert r[0] == pytest.approx(2.0)  # day-0 cohort is person 1
    assert r[4] == pytest.approx(1.0)  # day-4 cohort is person 2
    assert r[6] == pytest.approx(0.0)
    assert np.isnan(r[1])  # empty cohort


def test_effective_r_window_smoothing(chain_log):
    r = effective_r_series(chain_log, EXPOSED, n_days=10, window=7)
    # Window [0..6] covers persons 1, 2, 3: (2 + 1 + 0) / 3 = 1.
    assert r[6] == pytest.approx(1.0)


def test_empty_log():
    log = TransitionRecorder().finalize()
    stats = transmission_stats(log, EXPOSED)
    assert stats.n_transmissions == 0
    assert stats.offspring_mean == 0.0
    assert generation_intervals(log, EXPOSED).size == 0


def test_real_run_statistics(va_run, covid_model):
    """On a real epidemic: positive R early, intervals in plausible range,
    overdispersed offspring."""
    _pop, _net, result = va_run
    exposed = covid_model.code("Exposed")
    stats = transmission_stats(result.log, exposed)
    assert stats.n_transmissions > 50
    assert 2.0 < stats.mean_generation_interval < 15.0
    assert stats.offspring_var > stats.offspring_mean  # superspreading
    r = effective_r_series(result.log, exposed, result.n_days)
    early = np.nanmean(r[:14])
    late = np.nanmean(r[-14:])
    assert early > 1.0  # growing epidemic at the start
    assert late < early  # susceptible depletion
