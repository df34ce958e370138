"""Slurm batch-script generation tests."""

import pytest

from repro.cluster.jobscript import (
    array_script,
    database_script,
    scripts_from_packing,
)
from repro.scheduling.levels import pack_ffdt_dc, pack_nfdt_dc
from repro.scheduling.wmp import MappingTask, WMPInstance


def tasks_for(region, n, nodes=2, t=600.0):
    return [MappingTask(region, i, nodes, t + i) for i in range(n)]


def test_database_script_contents():
    script = database_script("VA", max_connections=16)
    assert script.filename == "popdb_va.sbatch"
    assert "--max_connections=16" in script.content
    assert "#SBATCH --nodes=1" in script.content
    assert "db-snapshots/va" in script.content


def test_array_script_contents():
    tasks = tasks_for("VA", 5, nodes=4)
    script = array_script("VA", tasks, level=2)
    assert script.filename == "epi-va-l2.sbatch"
    assert "#SBATCH --nodes=4" in script.content
    assert "#SBATCH --array=0-4" in script.content
    assert "VA-c0" in script.content and "VA-c4" in script.content
    assert "--dependency" not in script.content


def test_array_script_dependency():
    tasks = tasks_for("VA", 2)
    script = array_script("VA", tasks, level=1, depends_on="epi-va-l0")
    assert "--dependency=afterok:epi-va-l0" in script.content


def test_array_script_walltime_covers_slowest():
    tasks = tasks_for("VA", 3, t=3600.0)  # slowest 3602s * 1.5 ~ 1.5h
    script = array_script("VA", tasks)
    assert "#SBATCH --time=01:3" in script.content


def test_array_script_validation():
    with pytest.raises(ValueError, match="at least one"):
        array_script("VA", [])
    mixed = [MappingTask("VA", 0, 2, 10.0), MappingTask("VA", 1, 4, 10.0)]
    with pytest.raises(ValueError, match="share a node count"):
        array_script("VA", mixed)


def test_scripts_from_ffdt_packing_no_dependencies():
    inst = WMPInstance(
        tasks_for("VA", 6) + tasks_for("MD", 4),
        machine_width=8, db_caps={"VA": 2, "MD": 2})
    scripts = scripts_from_packing(pack_ffdt_dc(inst))
    names = [s.filename for s in scripts]
    assert "popdb_va.sbatch" in names and "popdb_md.sbatch" in names
    for s in scripts:
        assert "--dependency" not in s.content


def test_scripts_from_nfdt_packing_chain_levels():
    inst = WMPInstance(
        tasks_for("VA", 8), machine_width=6, db_caps={"VA": 2})
    packed = pack_nfdt_dc(inst)
    assert len(packed.levels) > 1
    scripts = scripts_from_packing(packed)
    deps = [s for s in scripts if "--dependency=afterok:" in s.content]
    assert deps  # later levels wait on earlier ones


def test_script_write(tmp_path):
    script = database_script("VT")
    path = script.write(tmp_path)
    assert path.read_text() == script.content


def test_db_cap_propagates_to_script():
    inst = WMPInstance(tasks_for("VA", 2), machine_width=8,
                       db_caps={"VA": 7})
    scripts = scripts_from_packing(pack_ffdt_dc(inst))
    db = next(s for s in scripts if s.filename.startswith("popdb"))
    assert "--max_connections=7" in db.content
