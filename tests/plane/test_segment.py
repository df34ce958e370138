"""Segment codec: layout, pack/attach round-trips, read-only views."""

import os

import numpy as np
import pytest

from repro.plane import segment as seg


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


def _name(tag):
    return f"{seg.SEGMENT_PREFIX}test-{tag}-{os.getpid()}"


def test_layout_alignment_and_order():
    arrays = _arrays()
    entries, total = seg.layout(arrays)
    assert [e["name"] for e in entries] == list(arrays)
    for e in entries:
        assert e["offset"] % seg.ALIGN == 0
        assert e["nbytes"] == arrays[e["name"]].nbytes
    assert total >= max(e["offset"] + e["nbytes"] for e in entries)


def test_layout_empty_is_one_byte():
    entries, total = seg.layout({})
    assert entries == [] and total == 1


def test_pack_views_roundtrip():
    arrays = _arrays()
    entries, total = seg.layout(arrays)
    shm = seg.create_segment(_name("roundtrip"), total)
    try:
        seg.pack(shm, entries, arrays)
        views = seg.views(shm, entries)
        assert set(views) == set(arrays)
        for name, arr in arrays.items():
            got = views[name]
            assert got.dtype == arr.dtype and got.shape == arr.shape
            assert np.array_equal(got, arr)
            assert not got.flags.writeable
    finally:
        seg.destroy(shm)


def test_scalar_and_strided_entries_roundtrip():
    """A 0-d entry stays 0-d (not shape ``(1,)``), and a strided source
    packs as its contiguous copy."""
    arrays = {"rate": np.asarray(0.25),
              "count": np.asarray(1234, dtype=np.int64),
              "every_other": np.arange(10, dtype=np.int32)[::2]}
    entries, total = seg.layout(arrays)
    assert [e["shape"] for e in entries] == [[], [], [5]]
    assert [e["nbytes"] for e in entries] == [8, 8, 20]
    shm = seg.create_segment(_name("scalar"), total)
    try:
        seg.pack(shm, entries, arrays)
        views = seg.views(shm, entries)
        for name, arr in arrays.items():
            assert views[name].shape == arr.shape, name
            assert views[name].dtype == arr.dtype, name
            assert np.array_equal(views[name], arr), name
    finally:
        seg.destroy(shm)


def test_views_are_zero_copy_and_write_protected():
    arrays = {"x": np.arange(8, dtype=np.int64)}
    entries, total = seg.layout(arrays)
    shm = seg.create_segment(_name("ro"), total)
    try:
        seg.pack(shm, entries, arrays)
        view = seg.views(shm, entries)["x"]
        with pytest.raises(ValueError):
            view[0] = 99
        # Zero-copy: a second mapping of the same segment sees writes
        # made through the buffer directly.
        np.ndarray(8, dtype=np.int64, buffer=shm.buf)[3] = 42
        assert view[3] == 42
    finally:
        seg.destroy(shm)


def test_open_and_unlink_by_name():
    arrays = {"x": np.arange(4, dtype=np.int32)}
    entries, total = seg.layout(arrays)
    name = _name("byname")
    shm = seg.create_segment(name, total)
    seg.pack(shm, entries, arrays)
    other = seg.open_segment(name)
    try:
        assert np.array_equal(seg.views(other, entries)["x"], arrays["x"])
    finally:
        other.close()
        shm.close()
    assert seg.unlink_segment(name) is True
    assert seg.unlink_segment(name) is False  # already gone
    with pytest.raises(FileNotFoundError):
        seg.open_segment(name)


def test_create_refuses_duplicate_names():
    name = _name("dup")
    shm = seg.create_segment(name, 64)
    try:
        with pytest.raises(FileExistsError):
            seg.create_segment(name, 64)
    finally:
        seg.destroy(shm)


def test_probe_leaves_nothing_behind():
    name = _name("probe")
    seg.probe(name)
    with pytest.raises(FileNotFoundError):
        seg.open_segment(name)
