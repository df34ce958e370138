"""EpiHiper: agent-based network epidemic simulation (paper Appendix D).

Public entry points:

- :func:`repro.epihiper.build_covid_model` — the Figure 12 COVID-19 PTTS.
- :class:`repro.epihiper.Simulation` — run a model over a region.
- :mod:`repro.epihiper.npi` — the eight named interventions of Figure 7.
- :func:`repro.epihiper.partition_threshold` — the paper's edge partitioner.
"""

from .batch import BatchedSimulation, BatchIncompatible
from .covid import (
    build_covid_model,
    build_covid_model_with_symp_fraction,
)
from .disease import (
    DiseaseModel,
    DiseaseModelError,
    Progression,
    Transmission,
    uniform,
)
from .engine import Simulation, SimulationResult
from .initialization import (
    initialize_from_surveillance,
    proportional_county_seeds,
    uniform_seeds,
)
from .interventions import (
    Intervention,
    at_tick,
    from_tick,
    sample_subset,
)
from .modelio import (
    model_from_dict,
    model_to_dict,
    read_model_json,
    write_model_json,
)
from .output import (
    TransitionLog,
    dendogram_roots,
    dendogram_sizes,
    max_generation,
    transmission_forest,
)
from .partition import (
    Partition,
    partition_cached,
    partition_degree_greedy,
    partition_round_robin,
    partition_threshold,
)
from .ranks import RankProfile, simulate_rank_execution, strong_scaling_curve
from .states import DiscreteDwell, FixedDwell, HealthState, NormalDwell
from .transmission import TransmissionBackend

__all__ = [
    "BatchIncompatible",
    "BatchedSimulation",
    "model_from_dict",
    "model_to_dict",
    "read_model_json",
    "write_model_json",
    "DiscreteDwell",
    "DiseaseModel",
    "DiseaseModelError",
    "FixedDwell",
    "HealthState",
    "Intervention",
    "NormalDwell",
    "Partition",
    "Progression",
    "RankProfile",
    "Simulation",
    "SimulationResult",
    "Transmission",
    "TransmissionBackend",
    "TransitionLog",
    "at_tick",
    "build_covid_model",
    "build_covid_model_with_symp_fraction",
    "dendogram_roots",
    "dendogram_sizes",
    "from_tick",
    "initialize_from_surveillance",
    "max_generation",
    "partition_cached",
    "partition_degree_greedy",
    "partition_round_robin",
    "partition_threshold",
    "proportional_county_seeds",
    "sample_subset",
    "simulate_rank_execution",
    "strong_scaling_curve",
    "transmission_forest",
    "uniform",
    "uniform_seeds",
]
