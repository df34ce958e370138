"""Cost-model tests (the Figures 7, 8, 10 shapes)."""

import numpy as np
import pytest

from repro.cluster.costmodel import (
    INTERVENTION_STEPS,
    CostModel,
    INTERVENTION_RUNTIME_FACTOR,
    network_size_table,
    paper_scale_edges,
    paper_scale_nodes,
)
from repro.params import PAPER_TOTAL_EDGES, PAPER_TOTAL_NODES


@pytest.fixture(scope="module")
def cm():
    return CostModel()


def test_paper_scale_totals():
    nodes = sum(paper_scale_nodes(c) for c, _n, _e in
                [(r[0], r[1], r[2]) for r in network_size_table()])
    assert abs(nodes - PAPER_TOTAL_NODES) < 100
    edges = sum(r[2] for r in network_size_table())
    assert abs(edges - PAPER_TOTAL_EDGES) < 100


def test_california_is_largest():
    table = network_size_table()
    assert table[-1][0] == "CA"
    assert table[0][0] == "WY"
    # CA holds about 12% of the national network.
    assert 0.10 < paper_scale_edges("CA") / PAPER_TOTAL_EDGES < 0.14


def test_california_step_about_3_seconds(cm):
    """Section VI: a California step takes about 3 seconds."""
    step = cm.step_seconds("CA", n_nodes=6)
    assert 2.0 < step < 5.0


def test_runtime_linear_in_network_size(cm):
    """Figure 7 top: runtime grows linearly with input size."""
    sizes = [paper_scale_edges(c) for c in ("WY", "VA", "CA")]
    times = [cm.expected_runtime(c, 6) for c in ("WY", "VA", "CA")]
    # Slope between consecutive pairs should be consistent (affine model).
    s1 = (times[1] - times[0]) / (sizes[1] - sizes[0])
    s2 = (times[2] - times[1]) / (sizes[2] - sizes[1])
    assert s1 == pytest.approx(s2, rel=1e-6)


def test_intervention_factor_ordering(cm):
    """Figure 7 bottom: base < RO < TA < PS < D1CT < D2CT."""
    times = [cm.expected_runtime("VA", 4, scenario=s)
             for s in ("base", "RO", "TA", "PS", "D1CT", "D2CT")]
    assert times == sorted(times)


def test_d2ct_nearly_300_percent(cm):
    base = cm.expected_runtime("VA", 4, scenario="base")
    d2 = cm.expected_runtime("VA", 4, scenario="D2CT")
    assert 3.5 < d2 / base < 4.3  # "almost 300%" increase


def test_sampled_runtime_variance(cm):
    rng = np.random.default_rng(0)
    times = [cm.sample_runtime("VA", 4, rng).runtime_seconds
             for _ in range(200)]
    arr = np.asarray(times)
    assert arr.std() / arr.mean() > 0.2  # Figure 8 spread
    assert arr.min() > 0


def test_runtime_range_matches_figure8(cm):
    """Per-job runtimes span roughly 100-1400 seconds across states."""
    rng = np.random.default_rng(1)
    small = [cm.sample_runtime("WY", 2, rng).runtime_seconds
             for _ in range(50)]
    big = [cm.sample_runtime("CA", 6, rng, scenario="PS").runtime_seconds
           for _ in range(50)]
    assert 50 < np.median(small) < 400
    assert 600 < np.median(big) < 2500


def test_memory_proportional_to_network(cm):
    assert (cm.base_memory_bytes("CA")
            > 10 * cm.base_memory_bytes("WY"))


def test_memory_grows_with_compliance(cm):
    """Figure 10 left: higher compliance -> more memory."""
    low = cm.memory_series("VA", 0.2, 200)
    high = cm.memory_series("VA", 0.9, 200)
    assert high[-1] > low[-1]
    assert high[0] == low[0]  # same base before interventions


def test_memory_steps_at_interventions(cm):
    step = INTERVENTION_STEPS[0]
    mem = cm.memory_series("VA", 0.8, 200)
    jump = mem[step] - mem[step - 1]
    drift = mem[step - 1] - mem[step - 2]
    assert jump > 5 * drift


def test_memory_final_correlates_with_initial(cm):
    """Figure 10 right: final memory tracks network size."""
    initials, finals = [], []
    for code in ("WY", "VA", "CA"):
        mem = cm.memory_series(code, 0.7, 200)
        initials.append(mem[0])
        finals.append(mem[-1])
    assert initials == sorted(initials)
    assert finals == sorted(finals)


def test_memory_compliance_validation(cm):
    with pytest.raises(ValueError):
        cm.memory_series("VA", 1.2, 100)


def test_min_nodes_categories(cm):
    assert cm.min_nodes("WY") <= 2
    assert cm.min_nodes("CA") > cm.min_nodes("WY")
    assert cm.min_nodes("CA") <= 6  # fits the paper's "large" category


def test_factor_table_matches_paper():
    assert INTERVENTION_RUNTIME_FACTOR["base"] == 1.0
    assert INTERVENTION_RUNTIME_FACTOR["D2CT"] == pytest.approx(3.9)
    assert (INTERVENTION_RUNTIME_FACTOR["D1CT"]
            < INTERVENTION_RUNTIME_FACTOR["D2CT"])
