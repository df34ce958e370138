"""The store's one blob codec: layout, alignment and exact round-trips,
read into memory or mapped read-only from the file."""

import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.store.cas import (
    ALIGN,
    BLOB_MAGIC,
    ContentStore,
    layout,
    map_blob,
    read_blob,
    write_blob,
)

pytestmark = pytest.mark.fast

KEY = "ab" * 32

DTYPES = [np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8,
          np.float64]

HEAD = len(BLOB_MAGIC) + 32 + 8


def _header(raw: bytes) -> tuple[list[dict], int]:
    """The offset table and the data section's start."""
    n = int.from_bytes(raw[HEAD - 8:HEAD], "little")
    return json.loads(raw[HEAD:HEAD + n]), -(-(HEAD + n) // ALIGN) * ALIGN


def _arrays():
    rng = np.random.default_rng(7)
    return {
        "a.i64": np.arange(17, dtype=np.int64),
        "b.f32": rng.random(33).astype(np.float32),
        "c.bool": rng.random(9) < 0.5,
        "d.i8": np.arange(-5, 6, dtype=np.int8),
        "e.2d": rng.integers(0, 99, (4, 3)).astype(np.int32),
        "f.empty": np.empty(0, dtype=np.float64),
    }


def test_layout_alignment_and_order():
    arrays = _arrays()
    entries = layout(arrays)
    assert [e["name"] for e in entries] == list(arrays)
    end = 0
    for e in entries:
        assert e["offset"] % ALIGN == 0
        assert e["offset"] >= end  # no two arrays overlap
        assert e["nbytes"] == arrays[e["name"]].nbytes
        end = e["offset"] + e["nbytes"]


def test_layout_of_nothing_is_empty():
    assert layout({}) == []


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


@settings(max_examples=30, deadline=None)
@given(payload=st.dictionaries(NAMES, ARRAYS, max_size=6))
def test_mapped_read_equals_the_copying_read(payload):
    """Scalars stay 0-d, strided sources come back as their contiguous
    values, and a mapped read decodes exactly what a copying one does."""
    arrays = {name: _strided(arr, flip) if strided else arr
              for name, (arr, strided, flip) in payload.items()}
    with tempfile.TemporaryDirectory() as root:
        store = ContentStore(root)
        store.put(KEY, arrays)
        copied = store.get(KEY)
        mapped = store.get(KEY, mapped=True)
    assert list(mapped) == list(copied) == list(arrays)
    for name in arrays:
        assert mapped[name].dtype == copied[name].dtype, name
        assert mapped[name].shape == copied[name].shape, name
        assert mapped[name].tobytes() == copied[name].tobytes(), name


def test_write_then_map_roundtrip(tmp_path):
    arrays = _arrays()
    path = tmp_path / "x.blob"
    with open(path, "wb") as fh:
        write_blob(fh, arrays)
    views = map_blob(path)
    assert list(views) == list(arrays)
    for name, arr in arrays.items():
        got = views[name]
        assert got.dtype == arr.dtype and got.shape == arr.shape, name
        assert np.array_equal(got, arr), name
        assert not got.flags.writeable, name


def test_scalar_and_strided_entries_roundtrip(tmp_path):
    """A 0-d entry stays 0-d (not shape ``(1,)``), and a strided source
    is stored as its contiguous copy."""
    arrays = {"rate": np.asarray(0.25),
              "count": np.asarray(1234, dtype=np.int64),
              "every_other": np.arange(10, dtype=np.int32)[::2]}
    entries = layout(arrays)
    assert [e["shape"] for e in entries] == [[], [], [5]]
    assert [e["nbytes"] for e in entries] == [8, 8, 20]
    path = tmp_path / "x.blob"
    with open(path, "wb") as fh:
        write_blob(fh, arrays)
    for got in (read_blob(path), map_blob(path)):
        for name, arr in arrays.items():
            assert got[name].shape == arr.shape, name
            assert got[name].dtype == arr.dtype, name
            assert np.array_equal(got[name], arr), name


def test_mapped_views_are_read_only_and_share_the_file(tmp_path):
    store = ContentStore(tmp_path)
    path = store.put(KEY, _arrays())
    got = store.get(KEY, mapped=True)
    for name, arr in got.items():
        assert not arr.flags.writeable, name
        assert isinstance(arr.base, np.memmap), name
    with pytest.raises(ValueError):
        got["a.i64"][0] = 99
    # Zero-copy: the view reads the file's pages, so a write to the file
    # shows through it.
    entries, start = _header(path.read_bytes())
    at = start + entries[0]["offset"] + 3 * 8
    with open(path, "r+b") as fh:
        fh.seek(at)
        fh.write(np.int64(42).tobytes())
    assert got["a.i64"][3] == 42


def test_mapped_read_of_an_empty_file_is_quarantined(tmp_path):
    store = ContentStore(tmp_path)
    path = store.path_of(KEY)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"")
    assert store.get(KEY, mapped=True) is None
    assert store.quarantined_keys() == [KEY]
