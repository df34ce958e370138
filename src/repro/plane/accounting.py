"""Figure 10 memory accounting, split per-node vs per-worker.

The classic Fig. 10 model charges every simulation its full resident
footprint — ``EDGE_BYTES`` per edge plus ``NODE_BYTES`` per node — which
is the right arithmetic when each worker process holds a private copy of
the region's inputs.  Mapped bundles change the node-level picture:
the immutable asset bundle (population columns, network columns,
surveillance series) is resident **once per node**, and each co-located
worker adds only the mutable engine state it cannot share.

This module decomposes the model accordingly:

- *shared* bytes: the read-only bundle, paid once per node.  Exact when
  real assets are in hand (:func:`split_from_assets` measures the
  bundle's columns); at paper scale it is the model residual ``EDGE_BYTES +
  NODE_BYTES - private``, so ``copy_total`` reproduces the historical
  Fig. 10 numbers exactly.
- *private* bytes: what :class:`~repro.epihiper.engine.Simulation`
  allocates per worker even on a mapped bundle — the arrays its
  ``__init__`` copies or derives because ticks mutate them.

The per-edge/per-node private constants are summed from the engine's
actual allocations (dtype sizes as of this writing): per edge
``base_active`` (1) + ``edge_weight`` f64 (8) + ``_duration_f64`` (8) +
``_home_mask`` (1) + suppressor ``count`` i16 (2) = 20; per node
``health`` i8 (1) + progression ``due`` i32 (4) + ``next_state`` i8 (1) +
``node_susceptibility`` f64 (8) + ``node_infectivity`` f64 (8) + the
maintained ``_infectious`` mask (1) = 23.  Neither counts the incident
CSR (32 B per edge and 16 B per person, built by frontier and ``auto``
lanes and the isolating NPIs) or the dense scan's lookups and buffers
(53 B per edge, from a lane's first dense tick).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..epihiper.engine import EDGE_BYTES, NODE_BYTES

#: Private (unshareable) bytes per contact-network edge per worker.
WORKER_EDGE_BYTES: int = 20

#: Private (unshareable) bytes per person per worker.
WORKER_NODE_BYTES: int = 23


@dataclass(frozen=True, slots=True)
class MemorySplit:
    """Resident bytes of one region on one node running ``n_workers``.

    Attributes:
        shared_bytes: the read-only asset bundle — once per node.
        private_bytes: mutable engine state — once per worker.
        n_workers: co-located workers simulating the region.
    """

    shared_bytes: int
    private_bytes: int
    n_workers: int = 1

    @property
    def copy_total(self) -> int:
        """Node-resident bytes when every worker holds a private copy."""
        return self.n_workers * (self.shared_bytes + self.private_bytes)

    @property
    def plane_total(self) -> int:
        """Node-resident bytes when workers map one shared bundle."""
        return self.shared_bytes + self.n_workers * self.private_bytes

    @property
    def savings_bytes(self) -> int:
        """Bytes sharing the bundle saves on this node."""
        return self.copy_total - self.plane_total

    @property
    def incremental_ratio(self) -> float:
        """Per-worker incremental cost, copy over shared (>= 1)."""
        return (self.shared_bytes + self.private_bytes) / max(
            1, self.private_bytes)


def memory_split(
    n_nodes: int,
    n_edges: int,
    n_workers: int = 1,
    *,
    shared_bytes: int | None = None,
) -> MemorySplit:
    """The Fig. 10 split for a region of ``n_nodes`` / ``n_edges``.

    Without ``shared_bytes`` the shared component is the model residual,
    so ``copy_total`` equals the classic per-worker model (``EDGE_BYTES *
    E + NODE_BYTES * N`` each); pass the measured bundle size (e.g.
    :func:`~repro.plane.bundle.bundle_nbytes`) to refine it.
    """
    private = n_edges * WORKER_EDGE_BYTES + n_nodes * WORKER_NODE_BYTES
    if shared_bytes is None:
        total = n_edges * EDGE_BYTES + n_nodes * NODE_BYTES
        shared_bytes = max(0, total - private)
    return MemorySplit(shared_bytes=int(shared_bytes),
                       private_bytes=int(private),
                       n_workers=int(n_workers))


def split_from_assets(assets, n_workers: int = 1) -> MemorySplit:
    """The split for real in-hand assets: shared bytes measured exactly
    from the packed bundle layout."""
    from .bundle import bundle_nbytes

    return memory_split(assets.pop.size, assets.net.n_edges, n_workers,
                        shared_bytes=bundle_nbytes(assets))
