"""Stakeholder weekly report generation.

"We have provided uninterrupted weekly projections and analytical products
to the analysts and senior officials of the state hospital referral regions
(HRR) and local universities ... We also provide our weekly forecasts to
the Centers for Disease Control and Prevention (CDC), and our analytical
products to the Department of Defense (DoD)" (Section I).

This module assembles that weekly product from the pipeline outputs: the
situation summary (observed counts, trend), the calibrated-parameter
readout, the forecast table with uncertainty, the hospital-capacity
assessment, and the review verdict — one plain-text briefing per region,
the artifact a Figure 2 cycle ends with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analytics.capacity import capacity_report
from ..analytics.targets import HOSPITAL_CENSUS, VENTILATOR_CENSUS
from .calibration_wf import CalibrationWorkflowResult
from .prediction_wf import PredictionWorkflowResult
from .review import ReviewOutcome, review_prediction

#: Forecast rows of the briefing (days ahead).
FORECAST_HORIZONS: tuple[int, ...] = (7, 14, 28)
#: Days compared by the situation line's trend label.
TREND_DAYS: int = 14


@dataclass(frozen=True)
class WeeklyReport:
    """One region's weekly briefing.

    Attributes:
        region_code: region covered.
        text: the rendered briefing.
        review: the automated review verdict the briefing embeds.
    """

    region_code: str
    text: str
    review: ReviewOutcome


def _trend_label(history: np.ndarray) -> str:
    window = TREND_DAYS
    if history.shape[0] < window + 1:
        return "insufficient history"
    recent = float(history[-1] - history[-window - 1])
    prior = float(history[-window - 1]
                  - history[max(0, history.shape[0] - 2 * window - 1)])
    if recent < 1.0:
        return "flat"
    if prior < 1.0:
        return "emerging"
    ratio = recent / prior
    if ratio > 1.25:
        return "accelerating"
    if ratio < 0.75:
        return "decelerating"
    return "steady"


def generate_weekly_report(
    calibration: CalibrationWorkflowResult,
    prediction: PredictionWorkflowResult,
) -> WeeklyReport:
    """Render the weekly briefing for one region.

    Args:
        calibration: the week's calibration output.
        prediction: the forecast built on it.
    """
    region = calibration.region_code
    history = prediction.history
    band = prediction.confirmed_band
    t0 = history.shape[0] - 1
    review = review_prediction(prediction)

    lines: list[str] = []
    lines.append(f"WEEKLY COVID-19 BRIEFING — {region}")
    lines.append("=" * 44)

    # Situation.
    lines.append("SITUATION")
    lines.append(f"  cumulative confirmed (model scale): {history[-1]:,.0f}")
    lines.append(f"  14-day trend: {_trend_label(history)}")

    # Calibration readout.
    lines.append("CALIBRATED PARAMETERS (posterior mean ± sd)")
    post = calibration.posterior.theta_samples
    for k, name in enumerate(calibration.space.names):
        lines.append(f"  {name:<16} {post[:, k].mean():.3f} "
                     f"± {post[:, k].std():.3f}")

    # Forecast.
    lines.append(f"FORECAST (cumulative confirmed, {prediction.n_members}"
                 "-member ensemble)")
    for h in FORECAST_HORIZONS:
        d = min(t0 + h, band.n_days - 1)
        lines.append(
            f"  +{h:>2}d  median {band.median[d]:>9,.0f}   "
            f"95% [{band.lower[d]:,.0f}, {band.upper[d]:,.0f}]")

    # Hospital capacity.
    hosp_band = prediction.target_bands.get(HOSPITAL_CENSUS.name)
    vent_band = prediction.target_bands.get(VENTILATOR_CENSUS.name)
    if hosp_band is not None and vent_band is not None:
        reports = capacity_report(
            hosp_band.upper, vent_band.upper, region,
            scale=calibration.assets.scale)
        lines.append("HOSPITAL CAPACITY (against upper-band demand)")
        for name, rep in reports.items():
            if rep.overflows:
                lines.append(
                    f"  {name}: OVERFLOW risk from day "
                    f"{rep.first_overflow_day} "
                    f"(peak {rep.peak_utilization:.0%} of capacity)")
            else:
                lines.append(
                    f"  {name}: within capacity "
                    f"(peak {rep.peak_utilization:.0%})")

    # Review verdict.
    lines.append("QUALITY REVIEW")
    verdict = "APPROVED for release" if review.accepted else \
        "HELD — recalibration requested"
    lines.append(f"  {verdict}")
    for f in review.failures:
        lines.append(f"  failed check: {f.check} ({f.detail})")

    return WeeklyReport(
        region_code=region,
        text="\n".join(lines),
        review=review,
    )
