"""repro.plane — the shared-memory population plane.

Region assets (synthetic population, contact network, surveillance
truth) are by far the largest objects in the stack, and before this
subsystem every pool worker and every ``repro serve`` process built its
own copy — the per-node memory wall the paper hits first when scaling
synthetic populations (EpiCast 2.0 treats population data as a node-level shared
asset for exactly this reason).  The plane builds each bundle **once per
node** into a POSIX shared-memory segment and hands every other process
read-only zero-copy views:

- :mod:`repro.plane.segment` — the array codec (pack/attach, offsets);
- :mod:`repro.plane.manifest` — :class:`AssetKey` (the one canonical
  asset identity) and the versioned JSON manifest registry;
- :mod:`repro.plane.bundle` — RegionAssets ↔ named-array flattening;
- :mod:`repro.plane.lifecycle` — build-once lease arbitration,
  refcounted unlink, crashed-owner reclamation, graceful fallback;
- :mod:`repro.plane.accounting` — the Fig. 10 memory model split into
  per-node (shared bundle) vs per-worker (private engine state) bytes.

Opt in with ``REPRO_PLANE=1`` (or the CLI ``--plane`` flags); point
cooperating processes at one coordination dir with ``REPRO_PLANE_DIR``.
When shared memory is unavailable everything silently degrades to the
historical per-process copies.
"""

from .accounting import MemorySplit, memory_split, split_from_assets
from .lifecycle import (
    PlaneRuntime,
    ensure_assets,
    plane_gc,
    plane_stats,
    runtime,
)
from .manifest import AssetKey, Manifest, opt_in, plane_enabled, plane_root

__all__ = [
    "AssetKey",
    "Manifest",
    "MemorySplit",
    "PlaneRuntime",
    "memory_split",
    "ensure_assets",
    "opt_in",
    "plane_enabled",
    "plane_gc",
    "plane_root",
    "plane_stats",
    "runtime",
    "split_from_assets",
]
