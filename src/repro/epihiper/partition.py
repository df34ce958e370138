"""Contact-network partitioning for distributed simulation (Section III).

The paper's objective: split the contact network so that each partition
holds approximately the same number of edges while *all incoming edges of
any given node live in the same partition* (the node's owner rank applies
its state transitions).  The production algorithm is deliberately simple:

    "given a partition, continue to allocate nodes to that partition until
    the number of incoming edges is greater than a threshold (E/P + eps)
    where E is the number of edges, P is the number of partitions, and eps
    is the tolerance factor."

We reproduce that threshold algorithm, the disk cache the paper mentions
("we can also cache the result of the partitioning computation on disk"),
and two ablation baselines (round-robin and networkx/Kernighan-Lin style)
for the partitioning study in DESIGN.md.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..synthpop.contacts import ContactNetwork

#: The threshold algorithm's tolerance epsilon (an absolute edge count
#: a partition may exceed its even share E / P by).
THRESHOLD_EPSILON: float = 0.0


@dataclass(frozen=True, slots=True)
class Partition:
    """An edge partition of a contact network.

    Attributes:
        n_parts: number of partitions (MPI ranks).
        node_owner: ``(n_nodes,)`` rank owning each node.
        edge_owner: ``(n_edges,)`` rank owning each edge — always the rank of
            the edge's *target* node, which realises the paper's "incoming
            edges of any given node are in the same partition" invariant.
    """

    n_parts: int
    node_owner: np.ndarray
    edge_owner: np.ndarray

    def edge_counts(self) -> np.ndarray:
        """Edges per partition."""
        return np.bincount(self.edge_owner, minlength=self.n_parts)

    def imbalance(self) -> float:
        """max/mean edge-count ratio (1.0 = perfectly balanced)."""
        counts = self.edge_counts()
        mean = counts.mean()
        return float(counts.max() / mean) if mean > 0 else 1.0

    def cut_edges(self, net: ContactNetwork) -> int:
        """Edges whose endpoints live on different ranks (communication)."""
        return int(
            (self.node_owner[net.source] != self.node_owner[net.target]).sum()
        )


def _in_degrees(net: ContactNetwork) -> np.ndarray:
    """Incoming-edge count per node under the target-owns-edge convention."""
    return np.bincount(net.target, minlength=net.n_nodes)


def partition_threshold(net: ContactNetwork, n_parts: int) -> Partition:
    """The paper's threshold algorithm.

    Nodes are scanned in id order and assigned to the current partition
    until its incoming-edge count exceeds ``E / P`` plus
    :data:`THRESHOLD_EPSILON`; then the next partition opens.  The last
    partition absorbs any remainder.

    Args:
        net: the contact network.
        n_parts: number of partitions P (>= 1).
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    indeg = _in_degrees(net)
    threshold = net.n_edges / n_parts + THRESHOLD_EPSILON

    node_owner = np.empty(net.n_nodes, dtype=np.int32)
    part = 0
    acc = 0
    for node in range(net.n_nodes):
        node_owner[node] = part
        acc += int(indeg[node])
        if acc > threshold and part < n_parts - 1:
            part += 1
            acc = 0
    edge_owner = node_owner[net.target].astype(np.int32)
    return Partition(n_parts, node_owner, edge_owner)


def partition_round_robin(net: ContactNetwork, n_parts: int) -> Partition:
    """Ablation baseline: nodes dealt to ranks round-robin.

    Balances node counts but ignores edge balance and locality.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    node_owner = (np.arange(net.n_nodes) % n_parts).astype(np.int32)
    return Partition(n_parts, node_owner,
                     node_owner[net.target].astype(np.int32))


def partition_degree_greedy(net: ContactNetwork, n_parts: int) -> Partition:
    """Ablation baseline: greedy largest-degree-first bin assignment.

    A more careful (and slower) heuristic: nodes in decreasing in-degree
    order go to the currently lightest partition.  Stands in for the "more
    sophisticated or optimal" algorithms the paper chose not to use.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    indeg = _in_degrees(net)
    order = np.argsort(-indeg, kind="stable")
    loads = np.zeros(n_parts, dtype=np.int64)
    node_owner = np.empty(net.n_nodes, dtype=np.int32)
    for node in order:
        part = int(np.argmin(loads))
        node_owner[node] = part
        loads[part] += int(indeg[node])
    return Partition(n_parts, node_owner,
                     node_owner[net.target].astype(np.int32))


# --- disk cache -----------------------------------------------------------------


def _cache_key(net: ContactNetwork, n_parts: int) -> str:
    h = hashlib.sha256()
    h.update(net.region_code.encode())
    h.update(np.int64(net.n_nodes).tobytes())
    h.update(np.int64(net.n_edges).tobytes())
    h.update(net.source[: 1000].tobytes())
    h.update(net.target[: 1000].tobytes())
    h.update(np.float64(THRESHOLD_EPSILON).tobytes())
    h.update(np.int64(n_parts).tobytes())
    return h.hexdigest()[:24]


def partition_cached(
    net: ContactNetwork,
    n_parts: int,
    cache_dir: str | Path,
) -> tuple[Partition, bool]:
    """Threshold partition with an on-disk cache.

    The paper caches partitions because partitioning California takes over
    an hour — longer than a typical simulation run.  Returns the partition
    and whether it was a cache hit.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"part_{_cache_key(net, n_parts)}.pkl"
    if path.exists():
        with path.open("rb") as fh:
            data = pickle.load(fh)
        return Partition(**data), True
    part = partition_threshold(net, n_parts)
    with path.open("wb") as fh:
        pickle.dump(
            {"n_parts": part.n_parts, "node_owner": part.node_owner,
             "edge_owner": part.edge_owner}, fh)
    return part, False
