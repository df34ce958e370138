"""Level-oriented packing tests (NFDT-DC / FFDT-DC)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.levels import pack_ffdt_dc, pack_nfdt_dc
from repro.scheduling.wmp import MappingTask, WMPInstance


def make_instance(specs, width=10, caps=None):
    """specs: list of (region, nodes, time)."""
    tasks = [MappingTask(r, i, n, t) for i, (r, n, t) in enumerate(specs)]
    return WMPInstance(tasks, width, caps or {})


def height(packing):
    """Packing height: each level lasts as long as its slowest task."""
    return sum(max(t.est_time for t in lv.tasks) for lv in packing.levels)


def test_single_task():
    inst = make_instance([("A", 3, 10.0)])
    for packer in (pack_nfdt_dc, pack_ffdt_dc):
        p = packer(inst)
        assert len(p.levels) == 1
        assert height(p) == 10.0


def test_decreasing_time_order_within_packing():
    inst = make_instance([("A", 2, 5.0), ("B", 2, 20.0), ("C", 2, 10.0)],
                         width=2)
    p = pack_ffdt_dc(inst)
    ordered = [t.est_time for t, _lvl in p.ordered_tasks()]
    assert ordered == sorted(ordered, reverse=True)


def test_nfdt_closes_level_on_width():
    inst = make_instance([("A", 6, 10.0), ("B", 6, 9.0), ("C", 4, 8.0)],
                         width=10)
    p = pack_nfdt_dc(inst)
    # A(6) fits level 0; B(6) doesn't -> level 1; C(4) fits level 1.
    assert len(p.levels) == 2
    assert height(p) == 10.0 + 9.0


def test_ffdt_reuses_open_levels():
    inst = make_instance([("A", 6, 10.0), ("B", 6, 9.0), ("C", 4, 8.0)],
                         width=10)
    p = pack_ffdt_dc(inst)
    # C goes back onto level 0 next to A: first-fit advantage.
    level_of = {t.task_id: lvl for t, lvl in p.ordered_tasks()}
    assert level_of["C-c2"] == 0
    assert height(p) == 10.0 + 9.0  # same heights here


def test_db_cap_forces_new_level():
    caps = {"A": 1}
    inst = make_instance([("A", 2, 10.0), ("A", 2, 9.0)], width=10,
                         caps=caps)
    for packer in (pack_nfdt_dc, pack_ffdt_dc):
        p = packer(inst)
        assert len(p.levels) == 2  # same region cannot share a level


def test_validate_passes():
    inst = make_instance(
        [("A", 2, 10.0), ("B", 3, 8.0), ("A", 2, 6.0), ("C", 5, 4.0)],
        width=7, caps={"A": 1})
    for packer in (pack_nfdt_dc, pack_ffdt_dc):
        packer(inst).validate()  # raises on violation


def test_ffdt_never_worse_than_nfdt():
    rng = np.random.default_rng(0)
    for trial in range(20):
        specs = [(f"R{rng.integers(4)}", int(rng.integers(1, 5)),
                  float(rng.uniform(1, 50))) for _ in range(30)]
        inst = make_instance(specs, width=12,
                             caps={f"R{i}": 3 for i in range(4)})
        nf = height(pack_nfdt_dc(inst))
        ff = height(pack_ffdt_dc(inst))
        assert ff <= nf + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_property_packing_within_classical_bounds(data):
    """Without DB caps these are NFDH / FFDH: height <= 3x the
    strip-packing lower bound (2*OPT + hmax <= 3*LB)."""
    n = data.draw(st.integers(1, 40))
    width = data.draw(st.integers(4, 16))
    specs = []
    for i in range(n):
        specs.append((
            f"R{i}",  # distinct regions: no DB interference
            data.draw(st.integers(1, width)),
            data.draw(st.floats(0.5, 100.0)),
        ))
    inst = make_instance(specs, width=width)
    for packer in (pack_nfdt_dc, pack_ffdt_dc):
        p = packer(inst)
        p.validate()
        assert height(p) <= (3.0 + 1e-9) * inst.lower_bound()


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_property_db_caps_respected(data):
    n = data.draw(st.integers(1, 30))
    cap = data.draw(st.integers(1, 3))
    specs = [("A", data.draw(st.integers(1, 4)),
              data.draw(st.floats(1.0, 20.0))) for _ in range(n)]
    inst = make_instance(specs, width=12, caps={"A": cap})
    for packer in (pack_nfdt_dc, pack_ffdt_dc):
        p = packer(inst)
        p.validate()
        for lv in p.levels:
            assert lv.region_count("A") <= cap
