"""Transition-log and dendogram tests."""

import numpy as np
import pytest

from repro.epihiper.output import (
    TransitionRecorder,
    dendogram_roots,
    dendogram_sizes,
    max_generation,
    transmission_forest,
)
from repro.params import BYTES_PER_TRANSITION


def build_log(rows):
    """rows: list of (tick, pid, state, infector)."""
    rec = TransitionRecorder()
    for tick, pid, state, infector in rows:
        rec.record_chunks(np.array([tick], np.int32),
                          np.array([pid], np.int64),
                          np.array([state], np.int8),
                          np.array([infector], np.int64))
    return rec.finalize()


def test_empty_log():
    log = TransitionRecorder().finalize()
    assert log.size == 0
    assert log.raw_bytes == 0
    assert log.transmissions().size == 0


def test_recorder_chunks_concatenate():
    rec = TransitionRecorder()
    rec.record(0, np.array([1, 2]), np.array([3, 3], np.int8))
    rec.record_chunks(np.array([1], np.int32), np.array([4], np.int64),
                      np.array([2], np.int8), np.array([1], np.int64))
    log = rec.finalize()
    assert log.size == 3
    assert log.tick.tolist() == [0, 0, 1]
    assert log.infector.tolist() == [-1, -1, 1]


def test_raw_bytes_accounting():
    rec = TransitionRecorder()
    rec.record(0, np.arange(10), np.zeros(10, np.int8))
    log = rec.finalize()
    assert log.raw_bytes == 10 * BYTES_PER_TRANSITION


def test_entering_filter():
    log = build_log([(0, 1, 2, -1), (1, 2, 3, -1), (2, 3, 2, -1)])
    rows = log.entering(2)
    assert log.pid[rows].tolist() == [1, 3]


def test_transmission_forest():
    # Seeds 1, 2 (exposed state = 5); 1 infects 3; 3 infects 4; 2 infects 5.
    log = build_log([
        (0, 1, 5, -1), (0, 2, 5, -1),
        (1, 3, 5, 1), (2, 4, 5, 3), (2, 5, 5, 2),
    ])
    parent = transmission_forest(log)
    assert parent == {3: 1, 4: 3, 5: 2}


def test_dendogram_roots():
    log = build_log([(0, 1, 5, -1), (0, 2, 5, -1), (1, 3, 5, 1)])
    roots = dendogram_roots(log, exposed_code=5)
    assert roots.tolist() == [1, 2]


def test_dendogram_sizes_sum_to_infected():
    log = build_log([
        (0, 1, 5, -1), (0, 2, 5, -1),
        (1, 3, 5, 1), (2, 4, 5, 3), (2, 5, 5, 2), (3, 6, 5, 4),
    ])
    sizes = dendogram_sizes(log, exposed_code=5)
    assert sizes == {1: 4, 2: 2}
    assert sum(sizes.values()) == 6


def test_max_generation():
    log = build_log([
        (0, 1, 5, -1), (1, 3, 5, 1), (2, 4, 5, 3), (3, 6, 5, 4),
    ])
    assert max_generation(log, exposed_code=5) == 3


def test_max_generation_seeds_only():
    log = build_log([(0, 1, 5, -1)])
    assert max_generation(log, exposed_code=5) == 0


def test_real_run_dendograms(va_run, covid_model):
    """On a real run: trees partition the ever-infected set."""
    pop, _net, result = va_run
    exposed = covid_model.code("Exposed")
    sizes = dendogram_sizes(result.log, exposed)
    ever_exposed = np.unique(
        result.log.pid[result.log.state == exposed]).size
    assert sum(sizes.values()) == ever_exposed
    roots = dendogram_roots(result.log, exposed)
    assert set(sizes) == set(roots.tolist())
    assert max_generation(result.log, exposed) >= 1
