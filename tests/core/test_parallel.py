"""Process-parallel instance execution tests."""

import numpy as np
import pytest

from repro.core.parallel import InstanceSpec, gather_ensemble, run_instances
from repro.plane.bundle import AssetKey


def make_specs(n=4, region="VT"):
    return [
        InstanceSpec(region_code=region, params={"TAU": 0.3},
                     n_days=25, scale=1e-3, seed=100 + i,
                     label=f"s{i}")
        for i in range(n)
    ]


def test_serial_execution():
    outcomes = run_instances(make_specs(3), parallel=False)
    assert len(outcomes) == 3
    for o in outcomes:
        assert o.confirmed.shape == (26,)
        assert 0.0 <= o.attack_rate <= 1.0
        assert o.transitions >= 0


def test_parallel_matches_serial():
    specs = make_specs(4)
    serial = run_instances(specs, parallel=False)
    parallel = run_instances(specs, parallel=True, max_workers=2)
    for s, p in zip(serial, parallel):
        assert s.spec == p.spec
        np.testing.assert_array_equal(s.confirmed, p.confirmed)
        assert s.attack_rate == p.attack_rate


def test_results_in_input_order():
    specs = make_specs(5)
    outcomes = run_instances(specs, parallel=True, max_workers=3)
    assert [o.spec.label for o in outcomes] == [s.label for s in specs]


def test_empty_specs():
    assert run_instances([]) == []


def test_single_spec_runs_inline():
    outcomes = run_instances(make_specs(1))
    assert len(outcomes) == 1


def test_mixed_regions_keep_input_order():
    specs = make_specs(2, region="VT") + make_specs(2, region="WY")
    specs = [specs[2], specs[0], specs[3], specs[1]]  # interleave regions
    outcomes = run_instances(specs, parallel=True, max_workers=2)
    assert [o.spec.region_code for o in outcomes] == \
        [s.region_code for s in specs]
    assert [o.spec.seed for o in outcomes] == [s.seed for s in specs]


def test_asset_key_groups_by_inputs():
    a, b = make_specs(2)
    # same region/scale/asset seed
    assert AssetKey.of_spec(a) == AssetKey.of_spec(b)


def test_gather_ensemble():
    outcomes = run_instances(make_specs(3), parallel=False)
    ens = gather_ensemble(outcomes)
    assert ens.shape == (3, 26)
    with pytest.raises(ValueError):
        gather_ensemble([])
