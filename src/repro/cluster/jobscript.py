"""Slurm batch-script generation (Section IV).

"Next, scripts are used to submit Slurm job arrays" — the production
pipeline materialises its schedule as sbatch files.  This module renders a
packed workload into the scripts the remote cluster would receive: one
job-array script per (region, node-category) group plus the database
server launch script, with the dependency structure the mapping algorithm's
levels imply.  The output is plain text, so the artefacts are inspectable
and the generation is testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - circular-import guard: this module
    # lives in repro.cluster, which repro.scheduling imports at runtime.
    from ..scheduling.levels import PackingResult
    from ..scheduling.wmp import MappingTask

#: Walltime of a population-database server job (it outlives the night's
#: arrays), and an array's margin over its slowest task.
DB_WALLTIME_SECONDS: float = 36_000.0
WALLTIME_SAFETY: float = 1.5

SBATCH_TEMPLATE = """#!/bin/bash
#SBATCH --job-name={name}
#SBATCH --nodes={nodes}
#SBATCH --ntasks-per-node={tasks_per_node}
#SBATCH --time={walltime}
#SBATCH --array=0-{array_max}{dependency}

module load intel-mpi
CONFIG_DIR=$1
CELLS=({cells})
CELL=${{CELLS[$SLURM_ARRAY_TASK_ID]}}

srun epihiper \\
    --config "$CONFIG_DIR/${{CELL}}.json" \\
    --population-db "pgsql://localhost/{region}" \\
    --network "/scratch/networks/{region}/chunks" \\
    --output "/scratch/output/${{CELL}}"
"""

DB_TEMPLATE = """#!/bin/bash
#SBATCH --job-name=popdb-{region}
#SBATCH --nodes=1
#SBATCH --time={walltime}

pg_ctl start -D "/scratch/db-snapshots/{region}" \\
    -o "--max_connections={max_connections}"
"""


def _walltime(seconds: float) -> str:
    total = int(seconds) + 59
    h, rem = divmod(total, 3600)
    m = rem // 60
    return f"{h:02d}:{m:02d}:00"


@dataclass(frozen=True, slots=True)
class JobScript:
    """One rendered sbatch file."""

    filename: str
    content: str

    def write(self, directory: str | Path) -> Path:
        """Write the script to ``directory``; returns the path."""
        path = Path(directory) / self.filename
        path.write_text(self.content)
        return path


def database_script(
    region_code: str, *, max_connections: int = 48,
) -> JobScript:
    """The per-region PostgreSQL snapshot-launch script."""
    content = DB_TEMPLATE.format(
        region=region_code.lower(),
        walltime=_walltime(DB_WALLTIME_SECONDS),
        max_connections=max_connections,
    )
    return JobScript(f"popdb_{region_code.lower()}.sbatch", content)


def array_script(
    region_code: str,
    tasks: list[MappingTask],
    *,
    cores_per_node: int = 28,
    level: int | None = None,
    depends_on: str | None = None,
) -> JobScript:
    """A job-array script for one region's tasks (optionally one level).

    Args:
        region_code: the region whose DB the array connects to.
        tasks: the array elements.
        cores_per_node: MPI ranks per node.
        level: packing level (embedded in the job name).
        depends_on: job name this array must wait for (level barriers).
    """
    if not tasks:
        raise ValueError("an array needs at least one task")
    nodes = tasks[0].n_nodes
    if any(t.n_nodes != nodes for t in tasks):
        raise ValueError("array elements must share a node count")
    name = f"epi-{region_code.lower()}"
    if level is not None:
        name += f"-l{level}"
    walltime = max(t.est_time for t in tasks) * WALLTIME_SAFETY
    dependency = ""
    if depends_on:
        dependency = f"\n#SBATCH --dependency=afterok:{depends_on}"
    content = SBATCH_TEMPLATE.format(
        name=name,
        nodes=nodes,
        tasks_per_node=cores_per_node,
        walltime=_walltime(walltime),
        array_max=len(tasks) - 1,
        dependency=dependency,
        cells=" ".join(t.task_id for t in tasks),
        region=region_code.lower(),
    )
    return JobScript(f"{name}.sbatch", content)


def scripts_from_packing(
    packed: PackingResult, *, cores_per_node: int = 28
) -> list[JobScript]:
    """Render a full packed workload into sbatch files.

    One DB script per region, then one array per (level, region, node
    count) group; NFDT-DC levels chain via afterok dependencies, FFDT-DC
    (backfill semantics) omits them.
    """
    strict_levels = packed.algorithm == "NFDT-DC"
    scripts: list[JobScript] = []
    regions = sorted({t.region_code for t in packed.instance.tasks})
    caps = packed.instance.db_caps
    for region in regions:
        scripts.append(database_script(
            region, max_connections=caps.get(region, 48)))

    prev_level_name: dict[str, str | None] = {r: None for r in regions}
    for lv in packed.levels:
        by_region: dict[str, list[MappingTask]] = {}
        for task in lv.tasks:
            by_region.setdefault(task.region_code, []).append(task)
        for region, tasks in sorted(by_region.items()):
            depends = prev_level_name[region] if strict_levels else None
            script = array_script(
                region, tasks,
                cores_per_node=cores_per_node,
                level=lv.index,
                depends_on=depends,
            )
            scripts.append(script)
            prev_level_name[region] = script.filename.removesuffix(
                ".sbatch")
    return scripts
