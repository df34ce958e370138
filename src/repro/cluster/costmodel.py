"""Job runtime and memory cost model (Figures 7, 8 and 10).

Maps a <cell, region> simulation task to paper-scale runtime and memory on
the remote cluster.  Constants are calibrated to the shapes the paper
reports:

- a simulation takes "between 100 to 300 time steps of about 3 seconds each
  for a network the size of California" (Section VI), giving per-state
  runtimes between roughly 100 and 1400 seconds (Figure 8);
- runtime grows with intervention complexity, D2CT costing almost +300%
  over the base case (Figure 7 bottom);
- memory is proportional to network size, grows at intervention time
  points, and grows faster at higher compliance (Figure 10).

Network sizes at paper scale are derived from each region's share of the
national population applied to the paper's totals (300M nodes, 7.9B edges).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..params import PAPER_TOTAL_EDGES, PAPER_TOTAL_NODES
from ..synthpop.regions import REGIONS, Region, get_region, total_population
from .machines import BRIDGES, ClusterSpec

#: Runtime multipliers by intervention scenario (Figure 7 bottom): the base
#: case is VHI + SC + SH; D2CT "increases the running time by almost 300%".
INTERVENTION_RUNTIME_FACTOR: dict[str, float] = {
    "base": 1.00,
    "RO": 1.06,
    "TA": 1.09,
    "PS": 1.55,
    "D1CT": 1.95,
    "D2CT": 3.90,
}

#: Seconds of per-step compute per edge per core (calibrated so a
#: California-size step on 6 Bridges nodes costs about 3 seconds).
SECONDS_PER_EDGE_PER_CORE: float = 5.3e-7
#: Fixed per-step synchronisation overhead (seconds).
STEP_OVERHEAD_SECONDS: float = 0.5
#: Resident bytes per paper-scale edge (network + buffers + DB cache).
BYTES_PER_EDGE_RESIDENT: float = 420.0
#: Safety factor between peak memory and the node allocation.
MEMORY_SAFETY: float = 1.0
#: Time steps of the mean run the mapping problem plans for.
EXPECTED_STEPS: int = 200
#: A run "usually requires between 100 to 300 time steps" (inclusive).
STEP_RANGE: tuple[int, int] = (100, 300)
#: Steps at which the modelled interventions trigger (Figure 10), and
#: the memory each adds per unit of compliance, as a share of the base
#: (halving with each later intervention).
INTERVENTION_STEPS: tuple[int, ...] = (30, 90)
MEMORY_GROWTH_PER_INTERVENTION: float = 0.35


def paper_scale_nodes(region: Region | str) -> int:
    """Paper-scale node (person) count for a region (Figure 6)."""
    if isinstance(region, str):
        region = get_region(region)
    return round(PAPER_TOTAL_NODES * region.population / total_population())


def paper_scale_edges(region: Region | str) -> int:
    """Paper-scale contact-edge count for a region (Figure 6)."""
    if isinstance(region, str):
        region = get_region(region)
    return round(PAPER_TOTAL_EDGES * region.population / total_population())


@dataclass(frozen=True, slots=True)
class JobEstimate:
    """Cost estimate for one <cell, region> task.

    Attributes:
        region_code: the region.
        scenario: intervention scenario name.
        n_nodes: allocated compute nodes.
        n_steps: simulated ticks.
        runtime_seconds: modelled wall-clock.
        peak_memory_bytes: modelled peak resident memory (across the job).
    """

    region_code: str
    scenario: str
    n_nodes: int
    n_steps: int
    runtime_seconds: float
    peak_memory_bytes: float


class CostModel:
    """Runtime / memory oracle for scheduling experiments."""

    def __init__(self, cluster: ClusterSpec = BRIDGES) -> None:
        self.cluster = cluster

    # -- runtime -------------------------------------------------------------

    def step_seconds(self, region: Region | str, n_nodes: int,
                     scenario: str = "base") -> float:
        """Modelled seconds per simulation step."""
        edges = paper_scale_edges(region)
        cores = n_nodes * self.cluster.cores_per_node
        factor = INTERVENTION_RUNTIME_FACTOR[scenario]
        compute = SECONDS_PER_EDGE_PER_CORE * edges / cores
        return (compute + STEP_OVERHEAD_SECONDS) * factor

    def expected_runtime(
        self,
        region: Region | str,
        n_nodes: int,
        *,
        scenario: str = "base",
    ) -> float:
        """Mean t(T[c, r]) for the mapping problem, in seconds."""
        return EXPECTED_STEPS * self.step_seconds(region, n_nodes, scenario)

    def sample_runtime(
        self,
        region: Region | str,
        n_nodes: int,
        rng: np.random.Generator,
        *,
        scenario: str = "base",
    ) -> JobEstimate:
        """A stochastic runtime draw (the Figure 8 across-cell variance).

        Randomness enters through the step count ("usually requires between
        100 to 300 time steps") and a lognormal machine-noise factor
        (Section V: randomness within the computation, triggered
        interventions, processor and database noise).
        """
        if isinstance(region, str):
            region = get_region(region)
        n_steps = int(rng.integers(STEP_RANGE[0], STEP_RANGE[1] + 1))
        noise = rng.lognormal(0.0, 0.12)
        runtime = n_steps * self.step_seconds(region, n_nodes, scenario) * noise
        return JobEstimate(
            region_code=region.code,
            scenario=scenario,
            n_nodes=n_nodes,
            n_steps=n_steps,
            runtime_seconds=float(runtime),
            peak_memory_bytes=float(self.memory_series(region, 0.7, n_steps).max()),
        )

    # -- memory -------------------------------------------------------------

    def base_memory_bytes(self, region: Region | str) -> float:
        """Initial resident memory: proportional to the contact network."""
        return paper_scale_edges(region) * BYTES_PER_EDGE_RESIDENT

    def memory_series(
        self,
        region: Region | str,
        compliance: float,
        n_steps: int,
    ) -> np.ndarray:
        """Modelled memory trajectory over a run (Figure 10).

        Memory steps up when interventions trigger at fixed time points, by
        an amount proportional to compliance ("higher compliance and,
        therefore, more scheduled changes to the system state require more
        memory"), on top of a slow drift from accumulating output buffers.
        """
        if not 0.0 <= compliance <= 1.0:
            raise ValueError("compliance must be in [0, 1]")
        base = self.base_memory_bytes(region)
        t = np.arange(n_steps, dtype=np.float64)
        mem = np.full(n_steps, base)
        for k, step in enumerate(INTERVENTION_STEPS):
            bump = MEMORY_GROWTH_PER_INTERVENTION * compliance * base / (k + 1)
            mem += bump * (t >= step)
        mem *= 1.0 + 0.0005 * t  # output buffers
        return mem

    # -- node sizing -------------------------------------------------------------

    def min_nodes(self, region: Region | str) -> int:
        """Smallest node count whose memory fits the worst-case job."""
        peak = self.memory_series(region, 1.0, 300).max() * MEMORY_SAFETY
        return max(1, int(np.ceil(peak / self.cluster.ram_per_node_bytes)))


def network_size_table() -> list[tuple[str, int, int]]:
    """(code, nodes, edges) at paper scale for all regions, Figure 6 order."""
    rows = []
    for code in sorted(REGIONS, key=lambda c: REGIONS[c].population):
        rows.append((code, paper_scale_nodes(code), paper_scale_edges(code)))
    return rows
