"""Simulation-configuration ("cell") files.

"Both calibration and prediction workflows start by generating simulation
configurations, also known as cells ...  The model configurations specify
which populations and contact networks to use, as well as the disease
parameters, interventions, initializations, and the number of days to
simulate" (Section III).

A :class:`CellConfig` is that artifact: a JSON-serialisable description a
workflow writes on the home cluster, ships to the remote cluster, and the
fan-out executes (:meth:`CellConfig.spec`).  It is exactly the unit the
Figure 1 "daily simulation configurations (100MB-8.7GB)" transfers carry.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from ..params import DEFAULT_SCALE, DEFAULT_SEED
from ..synthpop.regions import get_region
from .parallel import InstanceSpec

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CellConfig:
    """One executable simulation configuration.

    Attributes:
        region_code: which population / contact network to use.
        cell_index: position in the design.
        replicate: replicate number.
        n_days: ticks to simulate.
        scale: synthesis scale of the population.
        seed: RNG seed for this instance.
        disease: disease parameters (TAU, SYMP).
        interventions: runner-compatible intervention parameters
            (SH_COMPLIANCE, VHI_COMPLIANCE, lockdown_days, reopen_level,
            tracing_compliance).
        seeding: initialization spec (fraction, minimum seeds).
    """

    region_code: str
    cell_index: int = 0
    replicate: int = 0
    n_days: int = 120
    scale: float = DEFAULT_SCALE
    seed: int = DEFAULT_SEED
    disease: dict[str, float] = field(default_factory=dict)
    interventions: dict[str, Any] = field(default_factory=dict)
    seeding: dict[str, float] = field(
        default_factory=lambda: {"fraction": 0.002, "minimum": 5})

    def __post_init__(self) -> None:
        get_region(self.region_code)  # validates the code
        if self.n_days < 0:
            raise ValueError("n_days must be non-negative")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def instance_id(self) -> str:
        """Unique label: region-cell-replicate."""
        return f"{self.region_code}-c{self.cell_index}-r{self.replicate}"

    def runner_params(self) -> dict[str, Any]:
        """The flat parameter dict the simulation runner understands."""
        params: dict[str, Any] = {}
        params.update(self.disease)
        params.update(self.interventions)
        return params

    def spec(self) -> InstanceSpec:
        """The instance this configuration runs as on the fan-out: seed
        ``seed + 7919 * replicate + cell_index``, inputs built from
        ``seed``."""
        return InstanceSpec(
            region_code=self.region_code,
            params=self.runner_params(),
            n_days=self.n_days,
            scale=self.scale,
            seed=self.seed + 7919 * self.replicate + self.cell_index,
            label=self.instance_id,
            asset_seed=self.seed,
        )

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict, including the schema version."""
        data = asdict(self)
        data["schema"] = SCHEMA_VERSION
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CellConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported cell-config schema {data.get('schema')!r}")
        fields = {k: v for k, v in data.items() if k != "schema"}
        return cls(**fields)

    def to_json(self) -> str:
        """Pretty-printed JSON text of this configuration."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def write_config_bundle(
    configs: list[CellConfig], path: str | Path
) -> int:
    """Write a nightly configuration bundle (one JSON file, many cells).

    Returns bytes written — the quantity the Globus accounting transfers.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "configs": [c.to_dict() for c in configs],
    }
    text = json.dumps(payload, indent=1, sort_keys=True)
    Path(path).write_text(text)
    return len(text.encode())


def read_config_bundle(path: str | Path) -> list[CellConfig]:
    """Read a configuration bundle back."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError("unsupported bundle schema")
    return [CellConfig.from_dict(d) for d in data["configs"]]


def configs_from_design(
    design,
    *,
    n_days: int = 120,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
) -> list[CellConfig]:
    """Expand an :class:`~repro.core.designs.ExperimentDesign` into cell
    configurations (the workflow's generation step)."""
    known_disease = {"TAU", "SYMP"}
    out: list[CellConfig] = []
    for cell, region, rep in design.instances():
        disease = {k: v for k, v in cell.params.items()
                   if k in known_disease}
        interventions = {k: v for k, v in cell.params.items()
                         if k not in known_disease}
        out.append(CellConfig(
            region_code=region,
            cell_index=cell.index,
            replicate=rep,
            n_days=n_days,
            scale=scale,
            seed=seed,
            disease=disease,
            interventions=interventions,
        ))
    return out
