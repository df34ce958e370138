"""National multi-region sweep tests."""

import numpy as np
import pytest

from repro.analytics.aggregate import summarize
from repro.analytics.targets import CONFIRMED, DEATHS, target_series
from repro.core.national import run_national
from repro.core.runner import load_region_assets, run_instance
from repro.obs.registry import global_registry
from repro.store.cas import ContentStore


@pytest.fixture(scope="module")
def national():
    return run_national(
        {"TAU": 0.3}, (CONFIRMED, DEATHS),
        regions=("VT", "RI", "DE"), n_days=60, scale=1e-3, seed=9)


def test_shapes(national):
    assert national.series["confirmed"].shape == (3, 61)
    assert set(national.attack_rates) == {"VT", "RI", "DE"}


def test_national_sums_regions(national):
    total = national.national("confirmed")
    np.testing.assert_allclose(
        total, national.series["confirmed"].sum(axis=0))
    assert total[-1] > 0


def test_region_series_lookup(national):
    vt = national.series["confirmed"][national.regions.index("VT")]
    assert vt.shape == (61,)
    assert (np.diff(vt) >= 0).all()  # cumulative target


def test_attack_rates_in_range(national):
    for v in national.attack_rates.values():
        assert 0.0 <= v <= 1.0


def test_requires_regions():
    with pytest.raises(ValueError):
        run_national({"TAU": 0.2}, (CONFIRMED,), regions=())


def test_rejects_repeated_region():
    # One row per region in ``series`` but one key per region in
    # ``attack_rates``: a repeat would silently disagree between them.
    with pytest.raises(ValueError, match="repeat"):
        run_national({"TAU": 0.2}, (CONFIRMED,), regions=("VT", "RI", "VT"))


def test_matches_serial_reference(national):
    """Bit-identical to the serial ``run_instance`` loop it replaced."""
    for i, code in enumerate(("VT", "RI", "DE")):
        assets = load_region_assets(code, 1e-3, 9)
        result, model = run_instance(assets, {"TAU": 0.3}, n_days=60,
                                     seed=9 + 100 + i)
        summary = summarize(result, model)
        for t in (CONFIRMED, DEATHS):
            want = np.zeros(61)
            want[:] = target_series(summary, model, t)
            np.testing.assert_array_equal(national.series[t.name][i], want)
        assert national.attack_rates[code] == result.attack_rate(model)


def test_repeat_is_served_from_store(tmp_path):
    kwargs = dict(regions=("VT", "WY"), n_days=20, scale=1e-3, seed=4,
                  store=ContentStore(tmp_path / "store"))
    cold = run_national({"TAU": 0.3}, (CONFIRMED, DEATHS), **kwargs)
    misses = global_registry().value("memo.misses")
    warm = run_national({"TAU": 0.3}, (CONFIRMED, DEATHS), **kwargs)
    assert global_registry().value("memo.misses") == misses
    for name, series in cold.series.items():
        np.testing.assert_array_equal(warm.series[name], series)
    assert warm.attack_rates == cold.attack_rates


def test_bigger_region_more_cases(national):
    # RI (~1.06M) vs VT (~0.62M): larger population, larger counts.
    confirmed = dict(zip(national.regions, national.series["confirmed"]))
    ri, vt = confirmed["RI"][-1], confirmed["VT"][-1]
    assert ri + vt > 0
