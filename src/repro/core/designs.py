"""Experiment designs: the regions-cells-replicates hierarchy (Section V).

"Each workflow is comprised of 51 regions ..., and each region is then
comprised of a number of cells that each denotes one combination of various
parameters used to study a given problem.  Each cell is further comprised
of a number of replicates."

A :class:`Cell` is one parameter combination; an :class:`ExperimentDesign`
is the full 3-level hierarchy.  Factories reproduce the paper's named
designs (Table I and Figures 3-5).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..calibration.lhs import ParameterSpace, sample_design
from ..synthpop.regions import ALL_CODES


@dataclass(frozen=True, slots=True)
class Cell:
    """One simulation configuration (a cell of the statistical design).

    Attributes:
        index: cell number within the design.
        params: parameter name -> value for this combination.
    """

    index: int
    params: dict[str, Any] = field(default_factory=dict)

    def label(self) -> str:
        """Compact human-readable cell label."""
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"cell{self.index}[{inner}]"


@dataclass(frozen=True)
class ExperimentDesign:
    """A named regions x cells x replicates design.

    Attributes:
        name: design label ("economic", "prediction", "calibration").
        cells: the parameter combinations.
        regions: region codes covered.
        replicates: replicates per (cell, region).
    """

    name: str
    cells: tuple[Cell, ...]
    regions: tuple[str, ...] = ALL_CODES
    replicates: int = 1

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("a design needs at least one cell")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")

    @property
    def n_cells(self) -> int:
        """Number of cells."""
        return len(self.cells)

    @property
    def n_regions(self) -> int:
        """Number of regions."""
        return len(self.regions)

    @property
    def n_simulations(self) -> int:
        """Total simulation instances = cells x regions x replicates."""
        return self.n_cells * self.n_regions * self.replicates

    def instances(self):
        """Iterate (cell, region_code, replicate) triples in order."""
        for cell in self.cells:
            for region in self.regions:
                for rep in range(self.replicates):
                    yield cell, region, rep


def factorial_cells(factors: dict[str, list[Any]]) -> tuple[Cell, ...]:
    """Full factorial expansion of named factors into cells."""
    if not factors:
        raise ValueError("need at least one factor")
    names = list(factors)
    combos = itertools.product(*(factors[n] for n in names))
    return tuple(
        Cell(i, dict(zip(names, combo))) for i, combo in enumerate(combos)
    )


def lhs_cells(
    space: ParameterSpace, n: int, rng: np.random.Generator
) -> tuple[Cell, ...]:
    """LHS-sampled cells over a continuous parameter space."""
    design = sample_design(space, n, rng)
    return tuple(
        Cell(i, dict(zip(space.names, row.tolist())))
        for i, row in enumerate(design)
    )


# --- the paper's named designs ---------------------------------------------------


def economic_design() -> ExperimentDesign:
    """Figure 3: (2 VHI compliances x 3 lockdown durations x 2 lockdown
    compliances) x 51 states x 15 replicates = 9,180 simulations."""
    cells = factorial_cells({
        "vhi_compliance": [0.5, 0.8],
        "lockdown_days": [30, 45, 60],
        "sh_compliance": [0.6, 0.9],
    })
    return ExperimentDesign("economic", cells, ALL_CODES, replicates=15)


def prediction_design() -> ExperimentDesign:
    """Figure 5: (3 partial reopening levels x 4 contact tracing
    compliances) x 51 states x 15 replicates = 9,180 simulations."""
    cells = factorial_cells({
        "reopen_level": [0.25, 0.5, 0.75],
        "tracing_compliance": [0.2, 0.4, 0.6, 0.8],
    })
    return ExperimentDesign("prediction", cells, ALL_CODES, replicates=15)


def calibration_design(seed: int = 0) -> ExperimentDesign:
    """Figure 4: 300 cells x 51 states x 1 replicate = 15,300 simulations.

    Cells sample the case-study-3 parameter space: disease transmissibility
    (TAU), symptomatic fraction (SYMP), and SH / VHI compliances.
    """
    rng = np.random.default_rng(seed)
    cells = lhs_cells(case_study_space(), 300, rng)
    return ExperimentDesign("calibration", cells, ALL_CODES, replicates=1)


def case_study_space() -> ParameterSpace:
    """The four calibrated parameters of Figure 15."""
    return ParameterSpace(
        names=("TAU", "SYMP", "SH_COMPLIANCE", "VHI_COMPLIANCE"),
        lower=np.asarray([0.05, 0.35, 0.2, 0.2]),
        upper=np.asarray([0.50, 0.85, 0.9, 0.9]),
    )
