"""repro.plane — region asset bundles and their memory accounting.

Region assets (synthetic population, contact network, surveillance
truth) are by far the largest objects in the stack.  Each bundle is
built once per result store, published as an ``assets/v1`` blob, and
mapped read-only by every other process that needs it, so co-located
processes share its pages through the page cache (EpiCast 2.0 treats
population data as a node-level shared asset for exactly this reason;
:func:`repro.core.runner.load_assets` decides residency):

- :mod:`repro.plane.bundle` — :class:`AssetKey` (the one canonical
  asset identity) and RegionAssets ↔ named-array flattening;
- :mod:`repro.plane.accounting` — the Fig. 10 memory model split into
  per-node (shared bundle) vs per-worker (private engine state) bytes.
"""

from .accounting import MemorySplit, memory_split, split_from_assets
from .bundle import AssetKey

__all__ = [
    "AssetKey",
    "MemorySplit",
    "memory_split",
    "split_from_assets",
]
