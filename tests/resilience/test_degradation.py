"""Deadline-aware degradation: deterministic shedding, coverage floors."""

import pytest

from repro.obs import MetricsRegistry
from repro.scheduling.degrade import (
    cell_of,
    degrade_to_window,
    replicate_of,
)
from repro.scheduling.levels import pack_ffdt_dc
from repro.scheduling.wmp import make_nightly_instance

pytestmark = pytest.mark.fast

REGIONS = ("VT", "RI")
REPLICATES = 3


def small_instance():
    return make_nightly_instance(
        cells_per_region=2, replicates=REPLICATES, regions=REGIONS, seed=0)


def groups(tasks):
    out = {}
    for t in tasks:
        out.setdefault(cell_of(t, REPLICATES), []).append(t)
    return out


def test_replicate_and_cell_decoding():
    inst = small_instance()
    reps = {replicate_of(t, REPLICATES) for t in inst.tasks}
    assert reps == {0, 1, 2}
    assert len(groups(inst.tasks)) == 4  # 2 cells x 2 regions


def test_fitting_window_sheds_nothing():
    res = degrade_to_window(small_instance(), window_s=1e9,
                            packer=pack_ffdt_dc, replicates=REPLICATES)
    assert not res.degraded and res.shed == [] and res.rounds == 1
    assert len(res.instance.tasks) == len(small_instance().tasks)


def test_impossible_window_sheds_to_coverage_floor():
    inst = small_instance()
    res = degrade_to_window(inst, window_s=1.0, packer=pack_ffdt_dc,
                            replicates=REPLICATES)
    assert res.degraded
    # Every <cell, region> group keeps exactly the floor of one replicate.
    kept = groups(res.instance.tasks)
    assert all(len(ts) == 1 for ts in kept.values())
    assert len(kept) == 4  # no design point lost entirely
    # Highest tiers go first.
    first_shed_tier = replicate_of(res.shed[0], REPLICATES)
    assert first_shed_tier == REPLICATES - 1
    assert len(res.shed) + len(res.instance.tasks) == len(inst.tasks)


def test_min_replicates_floor_respected():
    res = degrade_to_window(small_instance(), window_s=1.0,
                            packer=pack_ffdt_dc, replicates=REPLICATES,
                            min_replicates=2)
    kept = groups(res.instance.tasks)
    assert all(len(ts) == 2 for ts in kept.values())


def test_min_replicates_validated():
    with pytest.raises(ValueError):
        degrade_to_window(small_instance(), window_s=1.0,
                          packer=pack_ffdt_dc, replicates=REPLICATES,
                          min_replicates=0)


def test_shedding_is_deterministic():
    a = degrade_to_window(small_instance(), window_s=1.0,
                          packer=pack_ffdt_dc, replicates=REPLICATES)
    b = degrade_to_window(small_instance(), window_s=1.0,
                          packer=pack_ffdt_dc, replicates=REPLICATES)
    assert a.shed_task_ids == b.shed_task_ids
    assert [t.task_id for t in a.instance.tasks] == [
        t.task_id for t in b.instance.tasks]


def test_metrics_account_shedding():
    reg = MetricsRegistry()
    res = degrade_to_window(small_instance(), window_s=1.0,
                            packer=pack_ffdt_dc, replicates=REPLICATES,
                            metrics=reg)
    assert reg.value("degrade.shed_instances") == len(res.shed)
    assert reg.value("degrade.rounds") == res.rounds
    # The projection rounds' slurm.* accounting stays out of the sink.
    assert reg.value("slurm.jobs") == 0
