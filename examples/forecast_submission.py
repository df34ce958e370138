#!/usr/bin/env python
"""Producing a forecast-hub submission from the prediction workflow.

"Our group submits forecasts to a number of these efforts" (Section VIII:
the CDC-style community forecast hubs).  This example runs the
calibration -> prediction cycle for two states and renders the ensembles
into a validated point + quantile submission file.

Run:  python examples/forecast_submission.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analytics.hubformat import (
    ensemble_to_hub_rows,
    validate_hub_rows,
    write_hub_csv,
)
from repro.core import run_calibration_workflow, run_prediction_workflow

CAL_DAYS = 70
HORIZON = 28


def main() -> None:
    all_rows = []
    for region in ("VT", "RI"):
        print(f"== {region}: calibrate ({CAL_DAYS}d window) "
              f"and predict ({HORIZON}d) ==")
        cal = run_calibration_workflow(
            region, n_cells=20, n_days=CAL_DAYS, scale=1e-2, seed=8,
            mcmc_samples=400, mcmc_burn_in=400)
        pred = run_prediction_workflow(
            cal, n_configurations=5, replicates=3, horizon=HORIZON, seed=9)
        rows = ensemble_to_hub_rows(
            pred.confirmed_ensemble,
            location=region,
            target="cum case",
            forecast_start=CAL_DAYS,
        )
        validate_hub_rows(rows)
        all_rows.extend(rows)
        point = [r for r in rows if r.type == "point"]
        print(f"   {pred.n_members}-member ensemble; point forecasts: "
              + ", ".join(f"+{r.horizon_days}d={r.value:.0f}"
                          for r in point))

    out = Path(tempfile.mkdtemp()) / "forecast_submission.csv"
    write_hub_csv(all_rows, out)
    print(f"\nwrote {len(all_rows)} rows "
          f"({len(all_rows) // 24} horizon blocks) to {out}")
    print("submission validates: quantiles monotone, one point per block")


if __name__ == "__main__":
    main()
