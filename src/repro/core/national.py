"""National-scale multi-region simulation sweeps.

"Our pipeline typically runs 5,000-17,900 simulations per night, covering
the entire US network ... partitioned across all 50 states and Washington
DC" (Section I).  This helper runs one configuration across a set of
regions — each with its own synthetic population, network and surveillance
seeding — and assembles national-level curves through the same fan-out
(:func:`~repro.core.parallel.run_instances`) the nightly workflows use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..analytics.targets import Target, target_series
from ..params import DEFAULT_SCALE, DEFAULT_SEED
from ..synthpop.regions import ALL_CODES
from .parallel import InstanceSpec, run_instances
from .runner import model_for_params


@dataclass(frozen=True)
class NationalRun:
    """Per-region and national series for one configuration.

    Attributes:
        regions: region codes covered.
        n_days: simulated ticks.
        series: mapping target name -> ``(n_regions, n_days + 1)`` matrix.
        attack_rates: per-region attack rates.
    """

    regions: tuple[str, ...]
    n_days: int
    series: dict[str, np.ndarray]
    attack_rates: dict[str, float]

    def national(self, target_name: str) -> np.ndarray:
        """Sum of a target's series over regions."""
        return self.series[target_name].sum(axis=0)


def run_national(
    params: dict[str, Any],
    targets: tuple[Target, ...],
    *,
    regions: tuple[str, ...] = ALL_CODES,
    n_days: int = 120,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    store=None,
    ledger=None,
) -> NationalRun:
    """Run one configuration across ``regions`` and collect target series.

    Each region gets an independent seeded stream (region ``i`` simulates
    with ``seed + 100 + i``); seeding follows each region's own
    surveillance history, as in the production workflows.  With a
    ``store``, regions already simulated are served instead of re-run.
    Raises ValueError for no regions or a region listed twice.
    """
    if not regions:
        raise ValueError("need at least one region")
    if len(set(regions)) != len(regions):
        raise ValueError(f"regions repeat a code: {', '.join(regions)}")
    specs = [
        InstanceSpec(region_code=code, params=params, n_days=n_days,
                     scale=scale, seed=seed + 100 + i,
                     label=f"{code}-national", asset_seed=seed)
        for i, code in enumerate(regions)
    ]
    outcomes = run_instances(specs, store=store, ledger=ledger, summary=True)
    model = model_for_params(params)
    return NationalRun(
        regions=tuple(regions),
        n_days=n_days,
        series={t.name: np.array([target_series(o.summary, model, t)
                                  for o in outcomes], dtype=np.float64)
                for t in targets},
        attack_rates={o.spec.region_code: o.attack_rate for o in outcomes},
    )
