"""Figure 10: memory required over simulation steps.

Left panel: Virginia cells at different intervention compliances — memory
steps up at the scheduled intervention times, more for higher compliance.
Right panel: one line per US state — final memory strongly correlated with
the initial (network-size) memory.

Both the paper-scale cost model and the real simulator's in-memory
accounting are exercised, plus the shared-bundle extension: the same
totals split into per-node (shared asset bundle) vs per-worker (private
engine state) bytes, which is what changes when workers map one stored
region bundle instead of holding private copies.
"""

import numpy as np
import pytest

from repro.cluster.costmodel import CostModel
from repro.cluster.costmodel import paper_scale_edges, paper_scale_nodes
from repro.epihiper import Simulation, build_covid_model, uniform_seeds
from repro.epihiper.npi import make_sh, make_vhi
from repro.plane import memory_split, split_from_assets
from repro.synthpop import build_region_network
from repro.synthpop.regions import ALL_CODES


def va_compliance_panel():
    cm = CostModel()
    return {c: cm.memory_series("VA", c, 200)
            for c in (0.2, 0.4, 0.6, 0.8, 1.0)}


def test_fig10_left_va_cells(benchmark, save_artifact):
    panel = benchmark(va_compliance_panel)
    lines = [f"{'compliance':>10}{'initial GB':>12}{'final GB':>12}"]
    for c, series in panel.items():
        lines.append(f"{c:>10.1f}{series[0] / 1e9:>12.1f}"
                     f"{series[-1] / 1e9:>12.1f}")
    save_artifact("fig10_left_va_memory", "\n".join(lines))

    finals = [panel[c][-1] for c in sorted(panel)]
    assert finals == sorted(finals)  # compliance ordering
    base = panel[0.2]
    # Memory is non-decreasing over steps (scheduled changes accumulate).
    for series in panel.values():
        assert (np.diff(series) >= -1e-6).all()
    # Paper left panel: VA totals in the 150-250GB band.
    assert 80e9 < base[0] < 200e9
    assert panel[1.0][-1] < 400e9


def all_state_panel():
    cm = CostModel()
    return {code: cm.memory_series(code, 0.7, 200) for code in ALL_CODES}


def test_fig10_right_all_states(benchmark, save_artifact):
    panel = benchmark(all_state_panel)
    lines = [f"{'state':<7}{'initial GB':>12}{'final GB':>12}"]
    for code in ALL_CODES:
        s = panel[code]
        lines.append(f"{code:<7}{s[0] / 1e9:>12.1f}{s[-1] / 1e9:>12.1f}")
    save_artifact("fig10_right_states_memory", "\n".join(lines))

    initial = np.asarray([panel[c][0] for c in ALL_CODES])
    final = np.asarray([panel[c][-1] for c in ALL_CODES])
    corr = np.corrcoef(initial, final)[0, 1]
    assert corr > 0.99  # "final memory ... strongly correlated with initial"
    # Paper right panel: up to ~800GB for the largest states.
    assert 400e9 < final.max() < 1200e9


def plane_split_panel(n_workers=8):
    return {code: memory_split(paper_scale_nodes(code),
                               paper_scale_edges(code), n_workers)
            for code in ALL_CODES}


def test_fig10_plane_memory_split(benchmark, save_artifact):
    """Per-node vs per-worker bytes: what a shared bundle changes."""
    n_workers = 8
    panel = benchmark(plane_split_panel)
    lines = [f"{'state':<7}{'shared GB':>12}{'private GB':>12}"
             f"{'copy x8 GB':>12}{'plane x8 GB':>12}{'saved GB':>12}"]
    for code in ALL_CODES:
        s = panel[code]
        lines.append(
            f"{code:<7}{s.shared_bytes / 1e9:>12.1f}"
            f"{s.private_bytes / 1e9:>12.1f}{s.copy_total / 1e9:>12.1f}"
            f"{s.plane_total / 1e9:>12.1f}{s.savings_bytes / 1e9:>12.1f}")

    # The small-scale split is measured, not modelled: the shared bytes
    # of a real bundle are its column bytes.
    from repro.core.runner import load_region_assets
    exact = split_from_assets(load_region_assets("VT", 1e-3, 0), n_workers)
    lines.append(f"\nVT @ 1e-3 measured: shared {exact.shared_bytes:,} B, "
                 f"private {exact.private_bytes:,} B/worker, "
                 f"incremental ratio {exact.incremental_ratio:.1f}x")
    save_artifact("fig10_plane_split", "\n".join(lines))

    for s in panel.values():
        # The split decomposes the classic model: copy_total for N
        # workers is exactly N times the historical per-worker bytes.
        assert s.copy_total == n_workers * (s.shared_bytes + s.private_bytes)
        assert s.plane_total < s.copy_total
        # Incremental worker cost drops with a shared bundle (private engine
        # state is a minority of the modelled resident bytes).
        assert s.incremental_ratio > 1.5
    assert exact.plane_total < exact.copy_total
    # Real bundles carry more shareable bytes than the coarse model
    # residual (full-width population columns), so the measured
    # incremental ratio is stronger still.
    assert exact.incremental_ratio > 2.0


def simulator_memory():
    pop, net = build_region_network("VA", scale=1e-3, seed=6)
    model = build_covid_model()
    out = {}
    for compliance in (0.2, 0.9):
        sim = Simulation(
            model, pop, net, seed=4,
            interventions=[make_vhi(compliance),
                           make_sh(compliance, start=20, end=80)])
        sim.seed_infections(uniform_seeds(pop, 30, sim.rng))
        out[compliance] = sim.run(100).memory_series
    return out


def test_fig10_simulator_memory_tracks_compliance(benchmark, save_artifact):
    series = benchmark.pedantic(simulator_memory, rounds=1, iterations=1)
    lines = [f"{'compliance':>10}{'initial MB':>12}{'final MB':>12}"]
    for c, s in series.items():
        lines.append(f"{c:>10.1f}{s[0] / 1e6:>12.2f}{s[-1] / 1e6:>12.2f}")
    save_artifact("fig10_simulator_memory", "\n".join(lines))

    # The real engine's resident-memory estimate also grows with
    # compliance (more suppressed edges and scheduled changes).
    assert series[0.9][-1] > series[0.2][-1]
    assert series[0.9][0] == series[0.2][0]  # same base network
