"""Store integrity: digest on write, verify on read, quarantine on corrupt."""

import io

import numpy as np
import pytest

from repro.resilience import FaultPlan
from repro.store.cas import (
    BLOB_MAGIC,
    ContentStore,
    payload_digest,
    write_blob,
)

pytestmark = pytest.mark.fast

KEY = "ab" + "0" * 62

#: Where a blob keeps its digest, and where its offset table starts.
DIGEST = slice(len(BLOB_MAGIC), len(BLOB_MAGIC) + 32)
TABLE = DIGEST.stop + 8


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


def test_payload_digest_survives_the_blob_roundtrip(tmp_path):
    """The content identity the golden file pins does not depend on the
    blob encoding: a stored-and-loaded payload digests the same."""
    store = ContentStore(tmp_path)
    store.put(KEY, payload())
    assert np.array_equal(payload_digest(store.get(KEY)),
                          payload_digest(payload()))


def test_roundtrip_verifies_clean(tmp_path):
    store = ContentStore(tmp_path)
    store.put(KEY, payload())
    got = store.get(KEY)
    assert got is not None and set(got) == set(payload())
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


def _encoded(arrays):
    buf = io.BytesIO()
    write_blob(buf, arrays)
    return buf.getvalue()


def test_tampered_blob_detected(tmp_path):
    """Corruption planted outside the fault plane is caught the same way:
    a well-formed blob whose arrays disagree with the digest it carries."""
    store = ContentStore(tmp_path)
    path = store.put(KEY, payload())
    tampered = payload()
    tampered["confirmed"][0] = 999.0
    forged = bytearray(_encoded(tampered))
    forged[DIGEST] = path.read_bytes()[DIGEST]
    path.write_bytes(bytes(forged))
    assert store.get(KEY) is None
    assert store.quarantined_keys() == [KEY]


def _flip_body_byte(raw):
    raw[-3] ^= 0x01  # inside the last array's bytes
    return raw


def _flip_digest(raw):
    raw[DIGEST.start + 5] ^= 0xFF
    return raw


DAMAGE = {
    "flipped body byte": _flip_body_byte,
    "flipped digest": _flip_digest,
    "truncated in header": lambda raw: raw[:DIGEST.start + 20],
    "truncated in table": lambda raw: raw[:TABLE + 10],
    "truncated in body": lambda raw: raw[:-4],
    "empty file": lambda raw: bytearray(),
}


def _assert_quarantined_miss(store):
    assert store.get(KEY) is None
    assert store.metrics.value("store.hits") == 0
    assert store.metrics.value("store.misses") == 1
    assert store.metrics.value("store.corrupt") == 1
    assert store.quarantined_keys() == [KEY]
    assert not store.contains(KEY)


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_damaged_blob_is_a_quarantined_miss(tmp_path, damage):
    store = ContentStore(tmp_path)
    path = store.put(KEY, payload())
    raw = bytearray(path.read_bytes())
    path.write_bytes(bytes(DAMAGE[damage](raw)))
    _assert_quarantined_miss(store)


def test_unreadable_blob_quarantined(tmp_path):
    store = ContentStore(tmp_path)
    path = store.put(KEY, payload())
    path.write_bytes(b"not a zip at all")
    _assert_quarantined_miss(store)


def test_digestless_blob_is_quarantined(tmp_path):
    """Every put writes a digest, so a file at a blob path without one —
    a legacy zip, whose arrays still decode — is damage, not an old
    format to fall back to, and must not be served unverified."""
    store = ContentStore(tmp_path)
    path = store.path_of(KEY)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, **payload())
    _assert_quarantined_miss(store)


def test_legacy_npz_is_never_read_but_ages_out(tmp_path):
    """A blob of the old format at its old path is invisible to ``get``
    and ``keys`` (a plain miss, nothing quarantined), yet still counts
    toward the byte bound, so ``gc`` and ``clear`` remove it."""
    store = ContentStore(tmp_path)
    legacy = store.path_of(KEY).with_suffix(".npz")
    legacy.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(legacy, **payload())
    assert store.get(KEY) is None
    assert store.metrics.value("store.corrupt") == 0
    assert legacy.exists() and list(store.keys()) == []
    assert store.total_bytes() == legacy.stat().st_size
    assert store.gc(0) == [KEY] and not legacy.exists()
    np.savez_compressed(legacy, **payload())
    assert store.clear() == 1 and not legacy.exists()


def test_summary_counts_corruption(tmp_path):
    plan = FaultPlan.parse(["cas.corrupt:times=1"], seed=0)
    store = ContentStore(tmp_path, faults=plan)
    store.put(KEY, payload())
    store.get(KEY)
    assert "corrupt 1" in store.summary()
