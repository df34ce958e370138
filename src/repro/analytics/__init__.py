"""Post-simulation analytics: aggregation, ensembles, forecast targets."""

from .aggregate import (
    COUNT_KINDS,
    RegionSummary,
    county_daily_counts,
    state_cumulative_curve,
    summarize,
)
from .ensembles import (
    EnsembleBand,
    ensemble_band,
    pool_cells,
)
from .capacity import (
    OverflowReport,
    RegionCapacity,
    assess_overflow,
    capacity_report,
    region_capacity,
)
from .hubformat import (
    HUB_QUANTILES,
    HubRow,
    ensemble_to_hub_rows,
    read_hub_csv,
    validate_hub_rows,
    write_hub_csv,
)
from .transmission import (
    TransmissionStats,
    effective_r_series,
    generation_intervals,
    offspring_counts,
    transmission_stats,
)
from .targets import (
    ALL_TARGETS,
    CONFIRMED,
    DAILY_CASES,
    DEATHS,
    HOSPITAL_CENSUS,
    HOSPITALIZATIONS,
    VENTILATIONS,
    VENTILATOR_CENSUS,
    Target,
    peak_demand,
    target_series,
)

__all__ = [
    "OverflowReport",
    "RegionCapacity",
    "assess_overflow",
    "capacity_report",
    "region_capacity",
    "HUB_QUANTILES",
    "HubRow",
    "ensemble_to_hub_rows",
    "read_hub_csv",
    "validate_hub_rows",
    "write_hub_csv",
    "TransmissionStats",
    "effective_r_series",
    "generation_intervals",
    "offspring_counts",
    "transmission_stats",
    "ALL_TARGETS",
    "CONFIRMED",
    "COUNT_KINDS",
    "DAILY_CASES",
    "DEATHS",
    "EnsembleBand",
    "HOSPITALIZATIONS",
    "HOSPITAL_CENSUS",
    "RegionSummary",
    "Target",
    "VENTILATIONS",
    "VENTILATOR_CENSUS",
    "county_daily_counts",
    "ensemble_band",
    "peak_demand",
    "pool_cells",
    "state_cumulative_curve",
    "summarize",
    "target_series",
]
