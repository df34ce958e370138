"""Synthetic populations and contact networks (paper Appendix C).

Public entry points:

- :func:`repro.synthpop.generate_population` — IPF-fitted persons/households.
- :func:`repro.synthpop.build_region_network` — full pipeline to a
  typical-day contact network.
- :data:`repro.synthpop.REGIONS` — the 51 modelled regions.
"""

from .binfmt import (
    read_network_binary,
    read_partition_chunks,
    write_network_binary,
    write_partition_chunks,
)
from .week import WeeklyActivities, assign_week
from .activities import ACTIVITY_TYPES, ActivityTable, assign_activities
from .contacts import ContactNetwork, build_region_network, derive_contacts
from .ipf import IPFError, IPFResult, ipf_fit, sample_joint
from .locations import VisitTable, assign_locations
from .persons import AGE_GROUPS, Population, generate_population
from .regions import ALL_CODES, BY_POPULATION, REGIONS, Region, get_region

__all__ = [
    "WeeklyActivities",
    "assign_week",
    "read_network_binary",
    "read_partition_chunks",
    "write_network_binary",
    "write_partition_chunks",
    "ACTIVITY_TYPES",
    "AGE_GROUPS",
    "ALL_CODES",
    "BY_POPULATION",
    "ActivityTable",
    "ContactNetwork",
    "IPFError",
    "IPFResult",
    "Population",
    "REGIONS",
    "Region",
    "VisitTable",
    "assign_activities",
    "assign_locations",
    "build_region_network",
    "derive_contacts",
    "generate_population",
    "get_region",
    "ipf_fit",
    "sample_joint",
]
