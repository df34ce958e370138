"""Figures 13 and 14: county- and state-level cumulative case curves.

Figure 13: California's county-level cumulative confirmed-case curves —
heterogeneous, spanning orders of magnitude, summing to the state curve.
Figure 14: state-level cumulative curves for all states — noisy, delayed,
staggered take-offs.

Regenerated from the synthetic surveillance substrate (the DESIGN.md
substitution for the NYT/JHU/VDH feeds), including the multi-source merge
the calibration inputs go through.
"""

import numpy as np
import pytest

from repro.surveillance import (
    generate_national_truth,
    generate_region_truth,
    multi_source_truth,
)


def test_fig13_california_counties(benchmark, save_artifact):
    truth = benchmark(
        lambda: generate_region_truth("CA", n_days=210, seed=0))
    finals = truth.cumulative[:, -1]
    order = np.argsort(-finals)
    lines = [f"{'county_fips':>12}{'final cumulative':>18}"]
    for idx in order[:15]:
        lines.append(f"{truth.county[idx]:>12}{finals[idx]:>18,.0f}")
    lines.append(f"... ({truth.n_counties} counties total)")
    lines.append(f"state total: {truth.state_cumulative()[-1]:,.0f}")
    save_artifact("fig13_ca_counties", "\n".join(lines))

    assert truth.n_counties == 58  # California's counties
    # County curves sum to the state curve.
    np.testing.assert_allclose(
        truth.cumulative.sum(axis=0), truth.state_cumulative())
    # Heterogeneity: top county is more than an order of magnitude above
    # the median county (the Figure 13 curve spread).
    positive = finals[finals > 0]
    assert positive.max() > 15 * np.median(positive)
    # Monotone cumulative curves.
    assert (np.diff(truth.cumulative, axis=1) >= 0).all()


def test_fig14_all_states(benchmark, save_artifact):
    national = benchmark.pedantic(
        lambda: generate_national_truth(seed=0),
        rounds=1, iterations=1)
    lines = [f"{'state':<7}{'take-off day':>13}{'final cumulative':>18}"]
    takeoffs = {}
    for code, truth in national.items():
        cum = truth.state_cumulative()
        nz = np.flatnonzero(cum > 100)
        takeoff = int(nz[0]) if nz.size else -1
        takeoffs[code] = takeoff
        lines.append(f"{code:<7}{takeoff:>13}{cum[-1]:>18,.0f}")
    save_artifact("fig14_state_curves", "\n".join(lines))

    finals = {c: t.state_cumulative()[-1] for c, t in national.items()}
    # Bigger states accumulate more cases; CA far exceeds WY.
    assert finals["CA"] > 30 * finals["WY"]
    # Take-offs are staggered across states (not synchronized).
    days = [d for d in takeoffs.values() if d >= 0]
    assert max(days) - min(days) >= 7
    # Every state eventually reports cases.
    assert all(f > 0 for f in finals.values())


def test_fig14_multi_source_merge(benchmark, save_artifact):
    def merged():
        truth = generate_region_truth("VA", n_days=210, seed=0)
        rng = np.random.default_rng(1)
        return truth, multi_source_truth(truth, rng)

    truth, merged_truth = benchmark(merged)
    save_artifact(
        "fig14_merge",
        f"raw final:    {truth.state_cumulative()[-1]:,.0f}\n"
        f"merged final: {merged_truth.state_cumulative()[-1]:,.0f}")
    # Merging the distorted sources recovers the full total.
    np.testing.assert_allclose(
        merged_truth.state_cumulative()[-1],
        truth.state_cumulative()[-1])
