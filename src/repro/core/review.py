"""Prediction review: the expert-in-the-loop consistency check (Figure 5).

"The output is aggregated and analyzed by public health domain experts to
identify inconsistencies (which may then trigger the calibration workflow
again).  If the predictions are deemed reasonable, we expand the
configurations with a few possible future what-if scenarios."

This module encodes the review checklist as automated heuristics: the
forecast must join smoothly onto the observed history, its band must be
neither degenerate nor absurdly wide, and the short-horizon trend must be
consistent with the recent observed trend.  The outcome either accepts the
prediction (proceed to what-if expansion) or requests recalibration — the
Figure 4 <-> Figure 5 feedback loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .prediction_wf import PredictionWorkflowResult

#: Review thresholds: the forecast's first-day median may sit this far
#: (relative) from the last observation; its growth over the first
#: ``TREND_WINDOW`` days may differ from the observed growth over the
#: last ``TREND_WINDOW`` days by this factor either way; the final 95 %
#: band may be this many medians wide.
CONTINUITY_TOLERANCE: float = 0.35
TREND_RATIO_LIMIT: float = 4.0
MAX_RELATIVE_WIDTH: float = 6.0
TREND_WINDOW: int = 14


@dataclass(frozen=True, slots=True)
class ReviewFinding:
    """One checklist finding."""

    check: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ReviewOutcome:
    """The review decision.

    Attributes:
        accepted: whether the prediction proceeds to what-if expansion.
        findings: per-check results.
    """

    accepted: bool
    findings: tuple[ReviewFinding, ...] = field(default=())

    @property
    def failures(self) -> list[ReviewFinding]:
        """Checks that failed."""
        return [f for f in self.findings if not f.passed]

    def report(self) -> str:
        """Human-readable review report."""
        lines = [f"review: {'ACCEPT' if self.accepted else 'RECALIBRATE'}"]
        for f in self.findings:
            mark = "ok " if f.passed else "FAIL"
            lines.append(f"  [{mark}] {f.check}: {f.detail}")
        return "\n".join(lines)


def review_prediction(
    prediction: PredictionWorkflowResult,
) -> ReviewOutcome:
    """Run the consistency checklist on a prediction.

    Checks:

    1. **Continuity** — the forecast median at the forecast start is within
       :data:`CONTINUITY_TOLERANCE` (relative) of the last observed value.
    2. **Trend consistency** — the median's growth over the first
       :data:`TREND_WINDOW` forecast days is within
       :data:`TREND_RATIO_LIMIT` x of the observed growth over the last
       :data:`TREND_WINDOW` history days
       (in either direction), unless both are negligible.
    3. **Band sanity** — the 95% band is non-degenerate (some members
       differ) and not absurd (width under :data:`MAX_RELATIVE_WIDTH` x the
       median at the final horizon).
    4. **Monotonicity** — a cumulative-count forecast median never falls.
    """
    band = prediction.confirmed_band
    history = prediction.history
    t0 = history.shape[0] - 1
    findings: list[ReviewFinding] = []

    last_obs = float(history[-1])
    # Ensemble members carry the history prefix, so the join is tested at
    # the first *forecast* day.
    joined = float(band.median[min(t0 + 1, band.n_days - 1)])
    denom = max(last_obs, 1.0)
    rel = abs(joined - last_obs) / denom
    findings.append(ReviewFinding(
        "continuity", rel <= CONTINUITY_TOLERANCE,
        f"median on first forecast day {joined:.1f} vs observed "
        f"{last_obs:.1f} ({rel:.0%} off)"))

    obs_growth = float(history[-1] - history[max(0, t0 - TREND_WINDOW)])
    fc_growth = float(band.median[min(t0 + TREND_WINDOW,
                                      band.n_days - 1)] - band.median[t0])
    if obs_growth < 1.0 and fc_growth < 1.0:
        trend_ok, detail = True, "both trends negligible"
    elif obs_growth < 1.0:
        trend_ok = fc_growth < denom * 0.5
        detail = (f"observed flat, forecast grows {fc_growth:.1f}")
    else:
        ratio = fc_growth / obs_growth
        trend_ok = (1.0 / TREND_RATIO_LIMIT) <= max(ratio, 1e-9) \
            <= TREND_RATIO_LIMIT
        detail = f"forecast/observed growth ratio {ratio:.2f}"
    findings.append(ReviewFinding("trend-consistency", trend_ok, detail))

    final_width = float(band.upper[-1] - band.lower[-1])
    final_median = max(float(band.median[-1]), 1.0)
    degenerate = np.allclose(prediction.confirmed_ensemble,
                             prediction.confirmed_ensemble[0])
    width_ok = (not degenerate) and (
        final_width <= MAX_RELATIVE_WIDTH * final_median)
    findings.append(ReviewFinding(
        "band-sanity", width_ok,
        f"final width {final_width:.1f} vs median {final_median:.1f}"
        + (" (degenerate ensemble)" if degenerate else "")))

    mono = bool((np.diff(band.median) >= -1e-9).all())
    findings.append(ReviewFinding(
        "monotonicity", mono, "cumulative median non-decreasing"
        if mono else "median decreases"))

    return ReviewOutcome(
        accepted=all(f.passed for f in findings),
        findings=tuple(findings),
    )


def calibrate_predict_review_loop(
    region_code: str,
    *,
    max_iterations: int = 2,
    n_cells: int = 20,
    n_days: int = 60,
    horizon: int = 28,
    scale: float = 1e-3,
    seed: int = 0,
):
    """The full Figure 4 <-> Figure 5 loop with automated review.

    Calibrates, predicts, reviews; on rejection, recalibrates with a larger
    design (the "continue calibrating with more iterations" path).  Returns
    ``(prediction, outcome, iterations_used)``; the last attempt is
    returned even if the review still rejects it.
    """
    from .calibration_wf import run_calibration_workflow
    from .prediction_wf import run_prediction_workflow

    prediction = None
    outcome = None
    for attempt in range(max_iterations):
        cal = run_calibration_workflow(
            region_code,
            n_cells=n_cells * (attempt + 1),
            n_days=n_days, scale=scale, seed=seed + attempt,
            mcmc_samples=400, mcmc_burn_in=400)
        prediction = run_prediction_workflow(
            cal, n_configurations=5, replicates=2, horizon=horizon,
            seed=seed + 100 + attempt)
        outcome = review_prediction(prediction)
        if outcome.accepted:
            return prediction, outcome, attempt + 1
    return prediction, outcome, max_iterations
