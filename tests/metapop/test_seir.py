"""Metapopulation SEIR tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metapop.scenarios import ALL_SCENARIOS, WORST_CASE
from repro.metapop.seir import (
    DEFAULT_MIXING,
    MetapopModel,
    SEIRParams,
    gravity_coupling,
)


@pytest.fixture(scope="module")
def model():
    return MetapopModel.for_region("VA")


def test_params_validation():
    with pytest.raises(ValueError):
        SEIRParams(beta=-0.1)
    with pytest.raises(ValueError):
        SEIRParams(beta=0.3, infectious_days=0)
    assert SEIRParams(beta=0.5, infectious_days=5).r0 == pytest.approx(2.5)


def test_gravity_coupling_row_stochastic():
    pops = np.array([1000.0, 5000.0, 200.0])
    c = gravity_coupling(pops)
    np.testing.assert_allclose(c.sum(axis=1), 1.0)
    np.testing.assert_allclose(np.diag(c), 1.0 - DEFAULT_MIXING)
    # Off-diagonal mass goes preferentially to the big county.
    assert c[0, 1] > c[0, 2]


def test_gravity_single_county():
    c = gravity_coupling(np.array([100.0]))
    np.testing.assert_allclose(c, [[1.0]])


def test_deterministic_conservation(model):
    res = model.run(SEIRParams(beta=0.4), 150)
    assert res.conservation_error() < 1e-6


@settings(max_examples=15, deadline=None)
@given(beta=st.floats(0.05, 0.9), seed=st.integers(0, 2**31))
def test_property_stochastic_conservation(beta, seed):
    model = MetapopModel(np.array([5000.0, 2000.0, 800.0]))
    res = model.run(SEIRParams(beta=beta), 100, stochastic=True,
                    rng=np.random.default_rng(seed),
                    initial_infected=20.0)
    assert res.conservation_error() < 1e-6
    assert (res.s >= 0).all() and (res.i >= 0).all()


def test_s_monotone_decreasing(model):
    res = model.run(SEIRParams(beta=0.4), 100)
    assert (np.diff(res.s.sum(axis=1)) <= 1e-9).all()


def test_r0_controls_final_size(model):
    small = model.run(SEIRParams(beta=0.1), 300)
    large = model.run(SEIRParams(beta=0.5), 300)
    assert (large.r[-1].sum() > small.r[-1].sum())


def test_subcritical_dies_out(model):
    res = model.run(SEIRParams(beta=0.05, infectious_days=5.0), 400)
    attack = res.r[-1].sum() / model.county_pop.sum()
    assert attack < 0.05


def test_confirmed_lags_infections(model):
    params = SEIRParams(beta=0.6, report_delay=7)
    res = model.run(params, 300)  # long enough for the peak to pass
    inf_peak = res.new_infections.sum(axis=1).argmax()
    conf_peak = res.confirmed.sum(axis=1).argmax()
    assert inf_peak < 290  # the peak is inside the window
    assert conf_peak >= inf_peak + 5


def test_ascertainment_scales_confirmed(model):
    res = model.run(SEIRParams(beta=0.4, ascertainment=0.25,
                               report_delay=0), 100)
    np.testing.assert_allclose(
        res.confirmed.sum(), res.new_infections.sum() * 0.25)


def test_stochastic_requires_rng(model):
    with pytest.raises(ValueError, match="rng"):
        model.run(SEIRParams(beta=0.3), 10, stochastic=True)


def test_initial_infected_vector(model):
    i0 = np.zeros(model.n_counties)
    i0[0] = 50.0
    res = model.run(SEIRParams(beta=0.3), 10, initial_infected=i0)
    assert res.i[0, 0] == 50.0
    assert res.i[0, 1:].sum() == 0.0


def test_mixing_spreads_to_other_counties(model):
    i0 = np.zeros(model.n_counties)
    i0[0] = 100.0
    res = model.run(SEIRParams(beta=0.5), 60, initial_infected=i0)
    assert (res.i[-1, 1:] > 0).any()


def test_scenarios_ordering(model):
    """Stronger/longer distancing -> smaller outbreak (Case study 2)."""
    params = SEIRParams(beta=0.42)
    finals = {}
    for sc in ALL_SCENARIOS:
        res = model.run(params, 210, beta_modifier=sc.beta_modifier())
        finals[sc.name] = res.state_confirmed_cumulative()[-1]
    assert finals["worst-case"] == max(finals.values())
    assert (finals["distancing-to-Jun10-50pct"]
            < finals["distancing-to-Apr30-50pct"])
    assert (finals["distancing-to-Apr30-50pct"]
            < finals["distancing-to-Apr30-25pct"])


def test_beta_modifier_values():
    mod = ALL_SCENARIOS[1].beta_modifier()  # Apr30, 25%
    assert mod(10) == 1.0
    assert mod(60) == 0.75
    assert mod(150) == 1.0
    assert WORST_CASE.beta_modifier()(60) == 1.0
