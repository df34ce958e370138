"""The prediction workflow (Figure 5, Figure 17, Case study 2/3 handoff).

"To make predictions, we run simulations using the model configurations
generated from the calibration workflow, and aggregate individual-level
output to obtain future counts for various forecasting targets ... The
ensemble of the model configurations and the simulation output provides
uncertainty quantification on the predictions."

The workflow optionally expands the posterior configurations with what-if
scenarios (partial reopening levels x contact-tracing compliances, the
Figure 5 factorial) before simulating.  The ensemble is one fan-out on the
calibration's asset bundle, so its members advance as batch lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analytics.ensembles import EnsembleBand, ensemble_band, pool_cells
from ..analytics.targets import ALL_TARGETS, target_series
from ..params import DEFAULT_SEED
from .calibration_wf import CalibrationWorkflowResult
from .parallel import InstanceSpec, gather_ensemble, run_instances
from .runner import model_for_params


@dataclass(frozen=True)
class PredictionWorkflowResult:
    """Prediction-workflow output.

    Attributes:
        region_code: region predicted.
        horizon: forecast ticks simulated.
        confirmed_ensemble: ``(R, T_obs + horizon + 1)`` cumulative
            confirmed curves; members carry the history prefix.
        confirmed_band: the Figure 17 median + 95% band.
        target_bands: per forecast target, the ensemble band.
        history: observed series preceding the forecast (sim scale).
        what_if: the scenario labels per ensemble member ("as-is" when no
            expansion was requested).
    """

    region_code: str
    horizon: int
    confirmed_ensemble: np.ndarray
    confirmed_band: EnsembleBand
    target_bands: dict[str, EnsembleBand]
    history: np.ndarray
    what_if: tuple[str, ...]

    @property
    def n_members(self) -> int:
        """Ensemble size."""
        return int(self.confirmed_ensemble.shape[0])


def what_if_expansion(
    base_params: dict[str, float],
    *,
    reopen_levels: tuple[float, ...] = (),
    tracing_compliances: tuple[float, ...] = (),
) -> list[tuple[str, dict[str, float]]]:
    """Expand one configuration with the Figure 5 what-if factorial.

    Returns labelled parameter dicts; with no factors given, the single
    "as-is" configuration is returned.
    """
    if not reopen_levels and not tracing_compliances:
        return [("as-is", dict(base_params))]
    out: list[tuple[str, dict[str, float]]] = []
    levels = reopen_levels or (None,)
    traces = tracing_compliances or (None,)
    for ro in levels:
        for ct in traces:
            params = dict(base_params)
            label_parts = []
            if ro is not None:
                params["reopen_level"] = ro
                label_parts.append(f"RO={ro}")
            if ct is not None:
                params["tracing_compliance"] = ct
                label_parts.append(f"CT={ct}")
            out.append(("+".join(label_parts), params))
    return out


def run_prediction_workflow(
    calibration: CalibrationWorkflowResult,
    *,
    n_configurations: int = 10,
    replicates: int = 3,
    horizon: int = 56,
    reopen_levels: tuple[float, ...] = (),
    tracing_compliances: tuple[float, ...] = (),
    seed: int = DEFAULT_SEED,
    store=None,
    ledger=None,
) -> PredictionWorkflowResult:
    """Simulate posterior configurations forward and build forecast bands.

    Args:
        calibration: output of the calibration workflow.
        n_configurations: posterior cells to simulate.
        replicates: replicates per cell.
        horizon: forecast ticks (Figure 17 shows 8 weeks = 56 days).
        reopen_levels / tracing_compliances: optional what-if factors.
        seed: RNG seed; member ``m`` simulates with ``seed + 5000 + m``.
        store: optional result store; members already present are served
            instead of simulated (bit-identical either way).
        ledger: optional run journal for the instance events.
    """
    rng = np.random.default_rng((seed, 23))
    key = calibration.asset_key
    configs = calibration.posterior_configurations(n_configurations, rng)
    total_days = calibration.observed.shape[0] - 1 + horizon
    members = [
        (label, expanded)
        for params in configs
        for label, expanded in what_if_expansion(
            params,
            reopen_levels=reopen_levels,
            tracing_compliances=tracing_compliances,
        )
        for _rep in range(replicates)
    ]
    specs = [
        InstanceSpec(
            region_code=key.region_code, params=expanded,
            n_days=total_days, scale=key.scale, seed=seed + 5000 + m,
            label=f"{key.region_code}-pred-m{m}", asset_seed=key.seed)
        for m, (_label, expanded) in enumerate(members)
    ]
    outcomes = run_instances(specs, store=store, ledger=ledger,
                             summary=True)

    ensemble = gather_ensemble(outcomes)
    return PredictionWorkflowResult(
        region_code=calibration.region_code,
        horizon=horizon,
        confirmed_ensemble=ensemble,
        confirmed_band=ensemble_band(ensemble),
        target_bands={
            t.name: ensemble_band(pool_cells([
                target_series(o.summary, model_for_params(o.spec.params), t)
                for o in outcomes]))
            for t in ALL_TARGETS
        },
        history=calibration.observed,
        what_if=tuple(label for label, _params in members),
    )
