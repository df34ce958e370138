"""Cell-configuration serialisation and execution tests."""

import json

import pytest

from repro.core.cellconfig import (
    CellConfig,
    configs_from_design,
    read_config_bundle,
    write_config_bundle,
)
from repro.core.designs import ExperimentDesign, factorial_cells
from repro.core.parallel import InstanceSpec, run_instances
from repro.core.runner import model_for_params


def test_config_validation():
    with pytest.raises(KeyError):
        CellConfig(region_code="ZZ")
    with pytest.raises(ValueError):
        CellConfig(region_code="VT", n_days=-1)
    with pytest.raises(ValueError):
        CellConfig(region_code="VT", scale=0.0)


def test_instance_id():
    c = CellConfig(region_code="VA", cell_index=3, replicate=7)
    assert c.instance_id == "VA-c3-r7"


def test_json_roundtrip():
    c = CellConfig(
        region_code="VT", cell_index=2, replicate=1, n_days=60,
        scale=1e-3, seed=5,
        disease={"TAU": 0.22, "SYMP": 0.6},
        interventions={"SH_COMPLIANCE": 0.7, "lockdown_days": 45},
    )
    back = CellConfig.from_dict(json.loads(c.to_json()))
    assert back == c
    assert back.runner_params() == {
        "TAU": 0.22, "SYMP": 0.6, "SH_COMPLIANCE": 0.7,
        "lockdown_days": 45}


def test_rejects_wrong_schema():
    with pytest.raises(ValueError, match="schema"):
        CellConfig.from_dict({"schema": 99, "region_code": "VT"})


def test_bundle_roundtrip(tmp_path):
    configs = [
        CellConfig(region_code="VT", cell_index=i, disease={"TAU": 0.2})
        for i in range(5)
    ]
    path = tmp_path / "bundle.json"
    size = write_config_bundle(configs, path)
    assert size == path.stat().st_size
    back = read_config_bundle(path)
    assert back == configs


def test_configs_from_design():
    cells = factorial_cells({"TAU": [0.1, 0.3], "sh_compliance": [0.5]})
    design = ExperimentDesign("x", cells, ("VT", "RI"), 2)
    configs = configs_from_design(design, n_days=30, scale=1e-3, seed=1)
    assert len(configs) == design.n_simulations == 8
    # Disease vs intervention parameters are split correctly.
    c = configs[0]
    assert "TAU" in c.disease
    assert "sh_compliance" in c.interventions
    ids = {c.instance_id for c in configs}
    assert len(ids) == 8


def test_config_spec():
    config = CellConfig(
        region_code="VT", cell_index=2, replicate=1, n_days=20, scale=1e-3,
        seed=3, disease={"TAU": 0.3},
        interventions={"VHI_COMPLIANCE": 0.5},
    )
    spec = config.spec()
    assert spec == InstanceSpec(
        region_code="VT", params={"TAU": 0.3, "VHI_COMPLIANCE": 0.5},
        n_days=20, scale=1e-3, seed=3 + 7919 * 1 + 2, label="VT-c2-r1",
        asset_seed=3)
    [outcome] = run_instances([spec], parallel=False)
    assert outcome.confirmed.shape == (21,)
    assert model_for_params(spec.params).transmissibility == 0.3


def test_config_spec_replicates_differ():
    base = dict(region_code="VT", n_days=30, scale=1e-3, seed=3,
                disease={"TAU": 0.3})
    r0, r1 = run_instances(
        [CellConfig(**base, replicate=r).spec() for r in (0, 1)],
        parallel=False)
    assert r0.transitions != r1.transitions or (
        r0.confirmed != r1.confirmed).any()
