"""Forecast-hub submission format.

"Our group submits forecasts to a number of these efforts" (Section VIII:
the CDC / COVID-19 Forecast Hub style community efforts).  Hub submissions
are long-format CSV rows of point and quantile forecasts per target and
horizon.  This module renders a prediction ensemble into that format and
parses it back, so the prediction workflow's output is hub-ready.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: The COVID-19 Forecast Hub's standard quantile set (23 levels).
HUB_QUANTILES: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45,
    0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.975,
    0.99,
)

#: Forecast horizons (days ahead) of a submission.
HUB_HORIZONS: tuple[int, ...] = (7, 14, 21, 28)

HEADER = ["location", "target", "horizon_days", "type", "quantile", "value"]


@dataclass(frozen=True, slots=True)
class HubRow:
    """One submission row."""

    location: str
    target: str
    horizon_days: int
    type: str  #: "point" or "quantile"
    quantile: float | None
    value: float


def ensemble_to_hub_rows(
    ensemble: np.ndarray,
    *,
    location: str,
    target: str,
    forecast_start: int,
) -> list[HubRow]:
    """Render an ``(R, T)`` ensemble into hub rows.

    Args:
        ensemble: replicate series including history; column
            ``forecast_start + h`` is horizon ``h``.
        location: hub location code (we use the region postal code).
        target: target label ("cum case").
        forecast_start: column of the last observed day.
    """
    ensemble = np.asarray(ensemble, dtype=np.float64)
    rows: list[HubRow] = []
    for h in HUB_HORIZONS:
        col = forecast_start + h
        if col >= ensemble.shape[1]:
            raise ValueError(f"horizon {h} beyond the simulated window")
        values = ensemble[:, col]
        rows.append(HubRow(location, target, h, "point", None,
                           float(np.median(values))))
        qs = np.quantile(values, HUB_QUANTILES)
        for q, v in zip(HUB_QUANTILES, qs):
            rows.append(HubRow(location, target, h, "quantile", q,
                               float(v)))
    return rows


def write_hub_csv(rows: list[HubRow], path: str | Path | None = None) -> str:
    """Serialise rows to hub CSV; returns the text (and writes if asked)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(HEADER)
    for r in rows:
        w.writerow([
            r.location, r.target, r.horizon_days, r.type,
            "" if r.quantile is None else f"{r.quantile:g}",
            f"{r.value:.3f}",
        ])
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def read_hub_csv(text_or_path: str | Path) -> list[HubRow]:
    """Parse hub CSV text (or a file path) back into rows."""
    if isinstance(text_or_path, Path) or (
        isinstance(text_or_path, str) and "\n" not in text_or_path
        and Path(text_or_path).exists()
    ):
        text = Path(text_or_path).read_text()
    else:
        text = str(text_or_path)
    rows: list[HubRow] = []
    for rec in csv.DictReader(io.StringIO(text)):
        q = rec["quantile"]
        rows.append(HubRow(
            location=rec["location"],
            target=rec["target"],
            horizon_days=int(rec["horizon_days"]),
            type=rec["type"],
            quantile=float(q) if q else None,
            value=float(rec["value"]),
        ))
    return rows


def validate_hub_rows(rows: list[HubRow]) -> None:
    """Hub-side validation: quantile monotonicity and point sanity.

    Raises ``ValueError`` on violations (the hub rejects such files).
    """
    by_key: dict[tuple[str, str, int], list[HubRow]] = {}
    for r in rows:
        by_key.setdefault((r.location, r.target, r.horizon_days),
                          []).append(r)
    for key, group in by_key.items():
        quants = sorted(
            (r for r in group if r.type == "quantile"),
            key=lambda r: r.quantile)
        values = [r.value for r in quants]
        if any(b < a - 1e-9 for a, b in zip(values, values[1:])):
            raise ValueError(f"non-monotone quantiles for {key}")
        points = [r for r in group if r.type == "point"]
        if len(points) != 1:
            raise ValueError(f"expected exactly one point row for {key}")
        if quants and not (
            values[0] - 1e-9 <= points[0].value <= values[-1] + 1e-9
        ):
            raise ValueError(f"point outside quantile envelope for {key}")
