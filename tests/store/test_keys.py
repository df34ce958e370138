"""Cache-key discipline: canonical, salted, and result-scoped."""

import pytest

from repro.core.parallel import InstanceSpec
from repro.store.keys import (
    canonical_params,
    canonical_value,
    code_version_salt,
    instance_key,
)

pytestmark = pytest.mark.fast


def spec(**overrides):
    base = dict(region_code="VA", params={"TAU": 0.2, "SYMP": 0.6},
                n_days=60, scale=1e-3, seed=7, label="a", asset_seed=3)
    base.update(overrides)
    return InstanceSpec(**base)


def test_key_is_hex64_and_stable():
    k1, k2 = instance_key(spec()), instance_key(spec())
    assert k1 == k2
    assert len(k1) == 64
    assert set(k1) <= set("0123456789abcdef")


def test_param_order_is_canonical():
    a = spec(params={"TAU": 0.2, "SYMP": 0.6})
    b = spec(params={"SYMP": 0.6, "TAU": 0.2})
    assert instance_key(a) == instance_key(b)


def test_label_does_not_affect_key():
    assert instance_key(spec(label="x")) == instance_key(spec(label="y"))


def test_every_param_name_counts_toward_the_key():
    """No name is set aside, not even one the runner does not read (a
    retired ``backend`` included): the key covers the params as given."""
    bare = spec(params={"TAU": 0.2})
    for extra in ({"backend": "dense"}, {"BACKEND": "frontier"},
                  {"note": "x"}):
        assert instance_key(spec(params={"TAU": 0.2, **extra})) != \
            instance_key(bare)


@pytest.mark.parametrize("field,value", [
    ("region_code", "VT"),
    ("n_days", 61),
    ("scale", 2e-3),
    ("seed", 8),
    ("asset_seed", 4),
    ("params", {"TAU": 0.2, "SYMP": 0.60001}),
    ("params", {"TAU": 0.2}),
])
def test_result_affecting_fields_change_key(field, value):
    assert instance_key(spec(**{field: value})) != instance_key(spec())


def test_salt_changes_key():
    assert instance_key(spec(), salt="a") != instance_key(spec(), salt="b")
    assert instance_key(spec(), salt="a") == instance_key(spec(), salt="a")


def test_namespace_changes_key():
    assert (instance_key(spec(), namespace="x/v1")
            != instance_key(spec(), namespace="y/v1"))


def test_env_salt_override(monkeypatch):
    base = instance_key(spec())
    monkeypatch.setenv("REPRO_STORE_SALT", "forced-invalidation")
    assert code_version_salt() == "forced-invalidation"
    assert instance_key(spec()) != base
    monkeypatch.delenv("REPRO_STORE_SALT")
    assert instance_key(spec()) == base


def test_code_version_salt_is_source_hash():
    salt = code_version_salt()
    assert len(salt) == 64
    assert salt == code_version_salt()


def test_canonical_value_types_distinct():
    assert len({canonical_value(v)
                for v in (1, 1.0, True, "1", None)}) == 5
    # floats round-trip exactly through repr
    assert canonical_value(0.1 + 0.2) == f"f:{(0.1 + 0.2)!r}"


def test_canonical_value_rejects_unhashable_structures():
    with pytest.raises(TypeError):
        canonical_value([1, 2])


def test_canonical_params_are_sorted_by_name():
    pairs = canonical_params({"backend": "dense", "TAU": 0.5, "A": 1})
    assert [name for name, _ in pairs] == ["A", "TAU", "backend"]


def test_numpy_scalars_normalise_to_python_types():
    """np.float64 subclasses float but reprs differently; keys must not
    depend on which numeric type the caller happened to hold."""
    import numpy as np

    assert canonical_value(np.float64(0.12)) == canonical_value(0.12)
    assert canonical_value(np.float64(0.12)) == "f:0.12"
