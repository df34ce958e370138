"""Job mapping and scheduling heuristics (paper Section V)."""

from .categories import (
    LARGE_NODES,
    MEDIUM_NODES,
    SMALL_NODES,
    category_name,
    category_table,
    node_category,
)
from .levels import (
    Level,
    PackingResult,
    pack_ffdt_dc,
    pack_nfdt_dc,
)
from .metrics import (
    UtilizationSample,
    execute_packing,
    jobs_from_packing,
    median_utilization,
    utilization_cdf,
    utilization_experiment,
)
from .wmp import MappingTask, WMPInstance, make_nightly_instance

__all__ = [
    "LARGE_NODES",
    "Level",
    "MEDIUM_NODES",
    "MappingTask",
    "PackingResult",
    "SMALL_NODES",
    "UtilizationSample",
    "WMPInstance",
    "category_name",
    "category_table",
    "execute_packing",
    "jobs_from_packing",
    "make_nightly_instance",
    "median_utilization",
    "node_category",
    "pack_ffdt_dc",
    "pack_nfdt_dc",
    "utilization_cdf",
    "utilization_experiment",
]
