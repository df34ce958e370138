"""Region node-count categories (Section VI).

"For simplicity, we therefore divided the 51 regions (networks) into 3
categories: small (2 compute nodes), medium (4), and large (6).  With these
assignments, we were able to guarantee that the jobs have sufficient memory
to complete even the complex intervention scenarios."

The category is derived from the cost model's worst-case memory requirement
and snapped to the paper's {2, 4, 6} sizes.
"""

from __future__ import annotations

from ..cluster.costmodel import CostModel
from ..synthpop.regions import Region, get_region

SMALL_NODES: int = 2
MEDIUM_NODES: int = 4
LARGE_NODES: int = 6

_CATEGORY_CACHE: dict[str, int] = {}


def node_category(region: Region | str) -> int:
    """Compute nodes allocated to a region's jobs (2, 4 or 6)."""
    if isinstance(region, str):
        region = get_region(region)
    if region.code in _CATEGORY_CACHE:
        return _CATEGORY_CACHE[region.code]
    need = CostModel().min_nodes(region)
    if need <= SMALL_NODES:
        cat = SMALL_NODES
    elif need <= MEDIUM_NODES:
        cat = MEDIUM_NODES
    else:
        cat = LARGE_NODES
    _CATEGORY_CACHE[region.code] = cat
    return cat


def category_name(n_nodes: int) -> str:
    """Human label for a category size."""
    return {SMALL_NODES: "small", MEDIUM_NODES: "medium",
            LARGE_NODES: "large"}.get(n_nodes, f"{n_nodes}-node")


def category_table() -> dict[str, list[str]]:
    """Mapping category name -> region codes, for reporting."""
    from ..synthpop.regions import ALL_CODES

    out: dict[str, list[str]] = {"small": [], "medium": [], "large": []}
    for code in ALL_CODES:
        out[category_name(node_category(code))].append(code)
    return out
