"""The calibration workflow (Figure 4 and Case study 3).

Steps, as in the paper:

1. Ingest county-level incidence data (synthetic multi-source surveillance).
2. Generate a prior design of model configurations (LHS over TAU, SYMP and
   the SH / VHI compliances — the Figure 15 parameters).
3. Simulate every cell with EpiHiper and aggregate simulated case counts.
4. Compare against ground truth with the Bayesian GP-emulator framework and
   produce plausible posterior configurations for the prediction workflow.

Cell simulations fan out through :func:`~repro.core.parallel.run_instances`
and are memoized through the result store when one is supplied: a repeated
workflow call with identical arguments serves every instance from the
store, and iterative rounds only pay for configurations they have not seen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..calibration.gpmsa import CalibrationResult, GPMSACalibrator
from ..calibration.lhs import ParameterSpace, sample_design
from ..params import DEFAULT_SCALE, DEFAULT_SEED
from ..plane.bundle import AssetKey
from ..store.cas import ContentStore
from ..store.ledger import RunLedger
from ..surveillance.truth import GroundTruth
from .designs import case_study_space
from .parallel import InstanceSpec, run_instances
from .runner import RegionAssets, load_assets, observed_series

__all__ = [
    "CalibrationWorkflowResult",
    "align_onset",
    "run_calibration_workflow",
    "run_iterative_calibration",
]


@dataclass(frozen=True)
class CalibrationWorkflowResult:
    """Everything the calibration workflow hands downstream.

    Attributes:
        region_code: calibrated region.
        space: parameter space.
        prior_design: ``(n_cells, d)`` LHS prior configurations.
        sim_series: ``(n_cells, T + 1)`` simulated confirmed curves.
        observed: ``(T + 1,)`` ground truth at simulation scale.
        posterior: the Bayesian calibration output.
        calibrator: the fitted emulator (for Figure 16 bands).
        assets: the region inputs used.
        asset_key: the key those inputs were loaded under (predictions
            from this calibration run on the same bundle).
    """

    region_code: str
    space: ParameterSpace
    prior_design: np.ndarray
    sim_series: np.ndarray
    observed: np.ndarray
    posterior: CalibrationResult
    calibrator: GPMSACalibrator
    assets: RegionAssets
    asset_key: AssetKey
    onset_day: int = 0  #: surveillance day aligned with simulation tick 0

    def posterior_configurations(
        self, n: int, rng: np.random.Generator
    ) -> list[dict[str, float]]:
        """``n`` posterior cells as runner-compatible parameter dicts."""
        draws = self.posterior.select_configurations(n, rng)
        return [dict(zip(self.space.names, row.tolist())) for row in draws]


def align_onset(
    truth: GroundTruth, scale: float, n_days: int
) -> tuple[np.ndarray, int]:
    """Align the simulation clock with the outbreak.

    Surveillance leads with a quiet importation period, while simulations
    are seeded "now": tick 0 therefore corresponds to the first
    surveillance day with a meaningful case count (mirroring the paper's
    seeding from current county-level confirmed cases).

    Args:
        truth: the region's surveillance ground truth.
        scale: simulation scale the truth is rescaled to.
        n_days: observation window in ticks.

    Returns:
        ``(observed, onset)``: the ``(n_days + 1,)`` truth window starting
        at the onset day, and the onset day itself (clamped so the window
        fits inside the truth series).
    """
    full = observed_series(truth, scale, truth.n_days - 1)
    nz = np.flatnonzero(full >= 1.0)
    onset = int(nz[0]) if nz.size else 0
    onset = min(onset, full.shape[0] - (n_days + 1))
    return full[onset: onset + n_days + 1], onset


def _design_specs(
    region_code: str,
    space: ParameterSpace,
    design: np.ndarray,
    *,
    n_days: int,
    scale: float,
    seed: int,
    seed_offset: int,
    label_prefix: str,
) -> list[InstanceSpec]:
    """Executable specs for the rows of a calibration design matrix.

    Per-row simulation seeds are ``seed + seed_offset + row`` — exactly
    the sequence the historical serial loops used, so the parallel and
    memoized paths stay bit-identical with them.
    """
    return [
        InstanceSpec(
            region_code=region_code,
            params=dict(zip(space.names, row.tolist())),
            n_days=n_days,
            scale=scale,
            seed=seed + seed_offset + i,
            label=f"{label_prefix}-c{i}",
            asset_seed=seed,
        )
        for i, row in enumerate(design)
    ]


def run_calibration_workflow(
    region_code: str = "VA",
    *,
    n_cells: int = 40,
    n_days: int = 80,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    mcmc_samples: int = 1200,
    mcmc_burn_in: int = 800,
    store: ContentStore | None = None,
    ledger: RunLedger | None = None,
    parallel: bool = True,
    max_workers: int | None = None,
) -> CalibrationWorkflowResult:
    """Execute the full calibration workflow for one region.

    Args:
        region_code: region to calibrate (case study 3 uses Virginia).
        n_cells: prior design size (the case study uses 100; the paper's
            production calibration runs 300 per region).
        n_days: observation window in ticks.
        scale: simulation scale.
        seed: master seed.
        mcmc_samples / mcmc_burn_in: posterior exploration budget.
        store: optional result store; instances already present are served
            instead of simulated (bit-identical either way).
        ledger: optional run journal for the instance events.
        parallel / max_workers: cell fan-out controls.
    """
    space = case_study_space()
    rng = np.random.default_rng((seed, 11))
    asset_key = AssetKey(region_code, scale, seed)
    assets = load_assets(asset_key, store=store)

    prior = sample_design(space, n_cells, rng)
    specs = _design_specs(
        region_code, space, prior, n_days=n_days, scale=scale, seed=seed,
        seed_offset=1000, label_prefix=f"{region_code}-cal")
    outcomes = run_instances(
        specs, store=store, ledger=ledger,
        parallel=parallel, max_workers=max_workers)
    series = np.vstack([o.confirmed for o in outcomes])

    observed, onset = align_onset(assets.truth, scale, n_days)

    calibrator = GPMSACalibrator(
        space, prior, series, observed, seed=seed + 17)
    posterior = calibrator.calibrate(
        n_samples=mcmc_samples, burn_in=mcmc_burn_in)

    return CalibrationWorkflowResult(
        region_code=region_code,
        space=space,
        prior_design=prior,
        sim_series=series,
        observed=observed,
        posterior=posterior,
        calibrator=calibrator,
        assets=assets,
        asset_key=asset_key,
        onset_day=onset,
    )


def run_iterative_calibration(
    region_code: str = "VA",
    *,
    n_rounds: int = 2,
    n_cells: int = 25,
    n_days: int = 80,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    mcmc_samples: int = 800,
    mcmc_burn_in: int = 600,
    store: ContentStore | None = None,
    ledger: RunLedger | None = None,
    parallel: bool = True,
    max_workers: int | None = None,
) -> list[CalibrationWorkflowResult]:
    """Sequential calibration rounds (Figure 16's "continue calibrating
    with more iterations").

    Round 1 trains on an LHS prior; each later round augments the training
    set with simulations at configurations drawn from the previous round's
    posterior — concentrating emulator accuracy where the posterior lives,
    the standard sequential-design refinement.  Each round's new cells fan
    out together, and with a ``store`` any configuration simulated in an
    earlier call is served instead of re-run.

    Returns one :class:`CalibrationWorkflowResult` per round; successive
    posteriors should tighten (or hold) as the emulator improves.
    """
    if n_rounds < 1:
        raise ValueError("need at least one round")
    results: list[CalibrationWorkflowResult] = []
    space = case_study_space()
    asset_key = AssetKey(region_code, scale, seed)
    assets = load_assets(asset_key, store=store)
    rng = np.random.default_rng((seed, 29))

    design = sample_design(space, n_cells, rng)
    series_rows: list[np.ndarray] = []
    design_rows: list[np.ndarray] = []
    run_counter = 0

    for round_idx in range(n_rounds):
        specs = _design_specs(
            region_code, space, design, n_days=n_days, scale=scale,
            seed=seed, seed_offset=3000 + run_counter,
            label_prefix=f"{region_code}-iter-r{round_idx}")
        run_counter += len(specs)
        outcomes = run_instances(
            specs, store=store, ledger=ledger,
            parallel=parallel, max_workers=max_workers)
        series_rows.extend(o.confirmed for o in outcomes)
        design_rows.extend(design)

        all_design = np.vstack(design_rows)
        all_series = np.vstack(series_rows)
        observed, onset = align_onset(assets.truth, scale, n_days)

        calibrator = GPMSACalibrator(
            space, all_design, all_series, observed,
            seed=seed + 17 + round_idx)
        posterior = calibrator.calibrate(
            n_samples=mcmc_samples, burn_in=mcmc_burn_in)
        results.append(CalibrationWorkflowResult(
            region_code=region_code,
            space=space,
            prior_design=all_design,
            sim_series=all_series,
            observed=observed,
            posterior=posterior,
            calibrator=calibrator,
            assets=assets,
            asset_key=asset_key,
            onset_day=onset,
        ))
        # Next round's design: draws from this posterior.
        if round_idx + 1 < n_rounds:
            design = posterior.select_configurations(
                max(5, n_cells // 2), rng)
    return results
