"""Shared-memory segment codec: named numpy arrays in one POSIX segment.

The plane stores one region's asset arrays — population columns, contact
network columns, surveillance series — packed back to back in a single
``multiprocessing.shared_memory`` segment, so a node pays the bytes once
no matter how many pool workers or service processes map it.  The layout is
a flat offset table (name, dtype, shape, offset) computed *before* the
segment exists, serialised into the plane manifest, and used verbatim by
every attacher to rebuild zero-copy views.

Two rules keep attachment safe:

- every array is stored C-contiguous and every offset is 64-byte aligned,
  so views are cache-line friendly and dtype-aligned regardless of the
  mix of 1/2/4/8-byte columns;
- attached views are created ``writeable=False`` — the engine already
  copies anything it mutates (``base_active``, ``edge_weight``), and the
  read-only flag turns an accidental in-place write into a loud
  ``ValueError`` instead of silent cross-process corruption.

CPython 3.11 registers *every* ``SharedMemory`` handle — attachments
included — with the ``resource_tracker``, which then unlinks the segment
when the first attacher exits (bpo-39959).  The plane owns segment
lifetime explicitly (refcounted unlink in :mod:`repro.plane.lifecycle`),
so both :func:`create_segment` and :func:`open_segment` immediately
unregister the handle.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import Mapping

import numpy as np

#: Offset alignment for every array in a segment (bytes).
ALIGN: int = 64

#: Shared-memory object-name prefix; ``plane gc`` recognises orphans by it.
SEGMENT_PREFIX: str = "repro-plane-"


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach ``shm`` from the resource tracker (the plane owns unlink)."""
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    """Create (exclusively) a segment of ``size`` bytes.

    Raises ``FileExistsError`` when the name is taken and ``OSError``
    (``ENOSPC``/``ENOENT``) when ``/dev/shm`` is too small or absent —
    callers translate those into the copy-fallback path.
    """
    shm = shared_memory.SharedMemory(name=name, create=True,
                                     size=max(1, int(size)))
    _untrack(shm)
    return shm


def open_segment(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment; ``FileNotFoundError`` when it is gone."""
    shm = shared_memory.SharedMemory(name=name, create=False)
    _untrack(shm)
    return shm


def unlink_segment(name: str) -> bool:
    """Remove a segment by name (best effort); True when it existed.

    The fresh handle's tracker registration is deliberately left in
    place: ``unlink`` consumes it, keeping the tracker's ledger balanced.
    """
    try:
        shm = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return False
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - lost a concurrent race
        _untrack(shm)
    finally:
        shm.close()
    return True


def destroy(shm: shared_memory.SharedMemory) -> None:
    """Unlink+close a handle from :func:`create_segment`/:func:`open_segment`.

    Re-registers before unlinking so the tracker's unregister-on-unlink
    finds the entry (we removed it at create/open time).
    """
    try:
        resource_tracker.register(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        _untrack(shm)
    finally:
        shm.close()


def probe(name: str) -> None:
    """Create-and-remove a tiny segment; raises when ``/dev/shm`` cannot
    serve (absent, full, or permission-denied)."""
    shm = shared_memory.SharedMemory(name=name, create=True, size=ALIGN)
    try:
        shm.unlink()
    finally:
        shm.close()


def _aligned(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def layout(arrays: Mapping[str, np.ndarray]) -> tuple[list[dict], int]:
    """The offset table for ``arrays`` plus the total segment size.

    Entries keep the mapping's iteration order; each records everything
    an attacher needs (``name``/``dtype``/``shape``/``offset``/``nbytes``)
    and nothing else, so the table serialises directly into the manifest
    (and into every store blob's header, see :mod:`repro.store.cas`).
    A 0-d array keeps its empty shape.
    """
    entries: list[dict] = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        offset = _aligned(offset)
        entries.append({
            "name": str(name),
            "dtype": arr.dtype.str,
            "shape": [int(d) for d in arr.shape],
            "offset": offset,
            "nbytes": int(arr.nbytes),
        })
        offset += arr.nbytes
    return entries, max(1, offset)


def pack(shm: shared_memory.SharedMemory, entries: list[dict],
         arrays: Mapping[str, np.ndarray]) -> None:
    """Copy ``arrays`` into ``shm`` at their table offsets."""
    for entry in entries:
        dst = np.ndarray(tuple(entry["shape"]), dtype=np.dtype(entry["dtype"]),
                         buffer=shm.buf, offset=entry["offset"])
        dst[...] = arrays[entry["name"]]


def views(shm: shared_memory.SharedMemory,
          entries: list[dict]) -> dict[str, np.ndarray]:
    """Read-only zero-copy views over a packed segment.

    The returned arrays alias the segment's pages directly; callers must
    keep ``shm`` referenced for as long as any view is live (the plane
    runtime does).
    """
    out: dict[str, np.ndarray] = {}
    for entry in entries:
        arr = np.ndarray(tuple(entry["shape"]), dtype=np.dtype(entry["dtype"]),
                         buffer=shm.buf, offset=entry["offset"])
        arr.flags.writeable = False
        out[entry["name"]] = arr
    return out
