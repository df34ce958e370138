"""The store's one blob codec: layout, alignment and exact round-trips."""

import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.plane.segment import ALIGN
from repro.store.cas import BLOB_MAGIC, ContentStore, read_blob, write_blob

pytestmark = pytest.mark.fast

KEY = "ab" * 32

DTYPES = [np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8,
          np.float64]

HEAD = len(BLOB_MAGIC) + 32 + 8


def _header(raw: bytes) -> tuple[list[dict], int]:
    """The offset table and the data section's start."""
    n = int.from_bytes(raw[HEAD - 8:HEAD], "little")
    return json.loads(raw[HEAD:HEAD + n]), -(-(HEAD + n) // ALIGN) * ALIGN


def test_layout_is_magic_digest_table_then_aligned_arrays(tmp_path):
    arrays = {"flags": np.array([True, False, True]),
              "rate": np.asarray(0.25),
              "counts": np.arange(7, dtype=np.int16),
              "grid": np.arange(12, dtype=np.float64).reshape(3, 4)}
    path = tmp_path / "x.blob"
    with open(path, "wb") as fh:
        write_blob(fh, arrays)
    raw = path.read_bytes()
    assert raw.startswith(BLOB_MAGIC)
    entries, start = _header(raw)
    assert [e["name"] for e in entries] == list(arrays)
    for e in entries:
        at = start + e["offset"]
        assert at % ALIGN == 0
        assert raw[at:at + e["nbytes"]] == arrays[e["name"]].tobytes()
    assert entries[1]["shape"] == []
    got = read_blob(path)
    for name, arr in arrays.items():
        assert got[name].shape == arr.shape and got[name].dtype == arr.dtype
        # Views over the one buffer the file was read into.
        assert got[name].base is got["flags"].base


@pytest.mark.parametrize("arr", [
    np.array([{"a": 1}], dtype=object),
    np.zeros(2, dtype=[("tick", np.int64), ("pid", np.int32)]),
], ids=["object", "structured"])
def test_unencodable_dtypes_are_refused(arr):
    with pytest.raises(TypeError):
        write_blob(io.BytesIO(), {"x": arr})


def test_unicode_and_empty_payloads_roundtrip(tmp_path):
    store = ContentStore(tmp_path)
    names = np.asarray(["TAU", "SYMP"])
    store.put(KEY, {"names": names, "digest": np.asarray("c0ffee")})
    got = store.get(KEY)
    assert got["names"].dtype == names.dtype
    assert list(got["names"]) == ["TAU", "SYMP"]
    assert got["digest"].shape == () and str(got["digest"]) == "c0ffee"
    store.put("cd" * 32, {})
    assert store.get("cd" * 32) == {}


def _strided(arr, flip):
    """A non-contiguous view with ``arr``'s values, when it has any."""
    if arr.ndim == 0:
        return arr
    doubled = np.repeat(arr, 2, axis=0)[::2]
    return doubled.T if flip and arr.ndim > 1 else doubled


NAMES = st.text(alphabet=st.sampled_from("ab:/._-x0"), min_size=1,
                max_size=8)

ARRAYS = st.tuples(
    hnp.arrays(dtype=st.sampled_from(DTYPES),
               shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                      max_side=4)),
    st.booleans(), st.booleans())


@settings(max_examples=60, deadline=None)
@given(payload=st.dictionaries(NAMES, ARRAYS, max_size=6))
def test_roundtrip_is_dtype_shape_and_byte_exact(payload):
    arrays = {name: _strided(arr, flip) if strided else arr
              for name, (arr, strided, flip) in payload.items()}
    with tempfile.TemporaryDirectory() as root:
        store = ContentStore(root)
        store.put(KEY, arrays)
        got = store.get(KEY)
    assert list(got) == list(arrays)
    for name, arr in arrays.items():
        assert got[name].dtype == arr.dtype, name
        assert got[name].shape == arr.shape, name
        assert got[name].tobytes() == arr.tobytes(), name
