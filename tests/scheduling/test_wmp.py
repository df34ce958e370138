"""WMP / DB-WMP instance tests."""

import pytest

from repro.scheduling.wmp import MappingTask, WMPInstance, make_nightly_instance


def task(region="A", cell=0, nodes=2, t=10.0):
    return MappingTask(region, cell, nodes, t)


def test_task_properties():
    t = task(nodes=4, t=100.0)
    assert t.area == 400.0
    assert t.task_id == "A-c0"


def test_instance_validation():
    with pytest.raises(ValueError, match="wider"):
        WMPInstance([task(nodes=10)], machine_width=5)
    with pytest.raises(ValueError, match="non-positive"):
        WMPInstance([task(t=0.0)], machine_width=5)


def test_lower_bound():
    inst = WMPInstance([task(nodes=2, t=10.0), task(cell=1, nodes=2, t=10.0)],
                       machine_width=2)
    # Area bound: 40 node-s / 2 nodes = 20s; tallest task 10s.
    assert inst.lower_bound() == 20.0
    wide = WMPInstance([task(nodes=1, t=50.0)], machine_width=100)
    assert wide.lower_bound() == 50.0  # tallest dominates


def test_nightly_instance_prediction_scale():
    inst = make_nightly_instance(cells_per_region=12, replicates=15, seed=0)
    assert len(inst.tasks) == 12 * 15 * 51 == 9180  # Table I prediction row
    assert inst.machine_width == 720 - 51  # DB node reservations
    assert set(inst.db_caps.values()) == {16}


def test_nightly_instance_calibration_scale():
    inst = make_nightly_instance(cells_per_region=300, replicates=1,
                                 regions=("VA", "MD"), seed=0)
    assert len(inst.tasks) == 600


def test_nightly_runtimes_vary():
    inst = make_nightly_instance(cells_per_region=5, replicates=2,
                                 regions=("VA",), seed=0)
    times = {t.est_time for t in inst.tasks}
    assert len(times) > 5


def test_nightly_width_override():
    inst = make_nightly_instance(cells_per_region=2, replicates=1,
                                 regions=("VA",), machine_width=24, seed=0)
    assert inst.machine_width == 24


def test_task_ids_unique():
    inst = make_nightly_instance(cells_per_region=3, replicates=4,
                                 regions=("VA", "MD"), seed=0)
    ids = [t.task_id for t in inst.tasks]
    assert len(set(ids)) == len(ids)
