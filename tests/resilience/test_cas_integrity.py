"""Store integrity: digest on write, verify on read, quarantine on corrupt."""

import numpy as np
import pytest

from repro.resilience import FaultPlan
from repro.store.cas import DIGEST_KEY, ContentStore, payload_digest

pytestmark = pytest.mark.fast

KEY = "ab" + "0" * 62


def payload():
    return {"confirmed": np.arange(10, dtype=np.float64),
            "attack_rate": np.asarray(0.25)}


def test_digest_is_stable_and_content_sensitive():
    d1 = payload_digest(payload())
    assert np.array_equal(d1, payload_digest(payload()))
    changed = payload()
    changed["confirmed"][3] += 1
    assert not np.array_equal(d1, payload_digest(changed))
    # Same bytes under a different name is a different payload.
    assert not np.array_equal(
        d1, payload_digest({"renamed": payload()["confirmed"],
                            "attack_rate": payload()["attack_rate"]}))
    # The embedded digest entry itself is excluded from the hash.
    with_digest = dict(payload(), **{DIGEST_KEY: d1})
    assert np.array_equal(d1, payload_digest(with_digest))


def test_roundtrip_verifies_clean(tmp_path):
    store = ContentStore(tmp_path)
    store.put(KEY, payload())
    got = store.get(KEY)
    assert got is not None and DIGEST_KEY not in got
    assert np.array_equal(got["confirmed"], payload()["confirmed"])
    assert store.metrics.value("store.corrupt") == 0


def test_injected_corruption_quarantined_as_miss(tmp_path):
    plan = FaultPlan.parse(["cas.corrupt:times=1"], seed=0)
    store = ContentStore(tmp_path, faults=plan)
    path = store.put(KEY, payload())
    assert store.metrics.value("faults.cas.corrupt") == 1
    assert store.get(KEY) is None  # digest mismatch detected
    assert not path.exists()  # moved out of the object tree...
    assert store.quarantined_keys() == [KEY]  # ...into quarantine
    assert store.metrics.value("store.corrupt") == 1
    assert store.metrics.value("store.misses") == 1


def test_requarantined_key_recovers_on_rewrite(tmp_path):
    plan = FaultPlan.parse(["cas.corrupt:times=1"], seed=0)
    store = ContentStore(tmp_path, faults=plan)
    store.put(KEY, payload())
    assert store.get(KEY) is None
    store.put(KEY, payload())  # second put: the times=1 rule is spent
    got = store.get(KEY)
    assert got is not None
    assert np.array_equal(got["confirmed"], payload()["confirmed"])


def test_tampered_blob_detected(tmp_path):
    """Corruption planted outside the fault plane is caught the same way."""
    store = ContentStore(tmp_path)
    path = store.put(KEY, payload())
    tampered = payload()
    tampered["confirmed"][0] = 999.0
    import os
    import tempfile

    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".npz")
    with os.fdopen(fd, "wb") as fh:
        np.savez_compressed(fh, **tampered,
                            **{DIGEST_KEY: payload_digest(payload())})
    os.replace(tmp_name, path)  # valid zip, arrays disagree with digest
    assert store.get(KEY) is None
    assert store.quarantined_keys() == [KEY]


def test_unreadable_blob_quarantined(tmp_path):
    store = ContentStore(tmp_path)
    path = store.put(KEY, payload())
    path.write_bytes(b"not a zip at all")
    assert store.get(KEY) is None
    assert store.metrics.value("store.corrupt") == 1
    assert store.quarantined_keys() == [KEY]


def test_digestless_blob_is_quarantined(tmp_path):
    """Every put embeds a digest, so a blob without one has lost it: it is
    corrupt, not legacy, and must not be served unverified."""
    store = ContentStore(tmp_path)
    path = store.path_of(KEY)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **payload())  # no __digest__ entry
    assert store.get(KEY) is None
    assert store.metrics.value("store.hits") == 0
    assert store.metrics.value("store.misses") == 1
    assert store.metrics.value("store.corrupt") == 1
    assert store.quarantined_keys() == [KEY]
    assert not store.contains(KEY)


def test_summary_counts_corruption(tmp_path):
    plan = FaultPlan.parse(["cas.corrupt:times=1"], seed=0)
    store = ContentStore(tmp_path, faults=plan)
    store.put(KEY, payload())
    store.get(KEY)
    assert "corrupt 1" in store.summary()
