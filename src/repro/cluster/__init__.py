"""Dual-cluster HPC substrate: machines, scheduler, DBs, transfers, costs.

Failures are injected, not modelled here: :class:`SlurmSimulator` and
:class:`GlobusLink` consult a :class:`~repro.resilience.faults.FaultPlan`
at its ``node.fail`` and ``transfer.fail`` sites and retry under a
:class:`~repro.resilience.retry.RetryPolicy`, like the live runtime.
"""

from .costmodel import (
    CostModel,
    INTERVENTION_RUNTIME_FACTOR,
    JobEstimate,
    network_size_table,
    paper_scale_edges,
    paper_scale_nodes,
)
from .globus import (
    GlobusLink,
    TABLE_II_SIZES,
    TransferRecord,
)
from .jobscript import (
    JobScript,
    array_script,
    database_script,
    scripts_from_packing,
)
from .machines import (
    AccessWindow,
    BRIDGES,
    ClusterSpec,
    NIGHTLY_WINDOW,
    RIVANNA,
)
from .slurm import (
    Job,
    JobRecord,
    ScheduleResult,
    SlurmSimulator,
)

__all__ = [
    "JobScript",
    "array_script",
    "database_script",
    "scripts_from_packing",
    "AccessWindow",
    "BRIDGES",
    "ClusterSpec",
    "CostModel",
    "GlobusLink",
    "INTERVENTION_RUNTIME_FACTOR",
    "Job",
    "JobEstimate",
    "JobRecord",
    "NIGHTLY_WINDOW",
    "RIVANNA",
    "ScheduleResult",
    "SlurmSimulator",
    "TABLE_II_SIZES",
    "TransferRecord",
    "network_size_table",
    "paper_scale_edges",
    "paper_scale_nodes",
]
