"""Replicate batching: partition instance specs into batchable groups.

Calibration rounds, ensemble designs, and scenario-service requests are
dominated by *replicate batches*: many :class:`~repro.core.parallel.
InstanceSpec`s that share a region, scale, asset seed, and horizon and
differ only in RNG seed and cell parameters.  Those are exactly the specs
:class:`~repro.epihiper.batch.BatchedSimulation` can advance through one
vectorized tick loop, K lanes at a time, with bit-identical per-replicate
outputs.

This module owns the partitioning policy and nothing else: given a spec
list, return index groups whose members may share one batched kernel.
The one fan-out (:func:`~repro.core.parallel.supervise_instances`, with
or without a store — calibration workflows and the scenario service
broker run through it) sends each group to the batched executor as one
unit of work, failure and retry: a fault in any lane fails the group's
attempt, and a group out of attempts is quarantined with one record per
spec.  There is no switch: a group of one is the solo route, and results
are bit-identical either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from ..plane.manifest import AssetKey

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .parallel import InstanceSpec

#: Cap on replicate lanes sharing one batched kernel: wider batches
#: amortise per-tick dispatch further but grow the stacked ``(K, N)`` /
#: ``(K, E)`` working set, and past the cache-friendly width gain nothing.
MAX_BATCH_LANES: int = 64

def group_key(spec: "InstanceSpec") -> tuple[AssetKey, int]:
    """The sharing key two specs must agree on to ride one batch.

    The canonical :class:`~repro.plane.manifest.AssetKey` (which pins the
    shared population/network/surveillance bundle — the same key the
    runner cache, fan-out preload, and plane manifest use) plus the tick
    horizon.  Cell parameters and seeds deliberately do not participate:
    the batched engine takes heterogeneous cells and RNG streams as
    lanes.  In the rare case a parameter produces a structurally
    incompatible model its constructor raises
    :class:`~repro.epihiper.batch.BatchIncompatible`, and the worker
    entry (``core/parallel._execute_group``) re-runs the group as one
    group per spec.
    """
    return (AssetKey.of_spec(spec), int(spec.n_days))


def batch_groups(
    specs: Sequence[Any],
    max_lanes: int = MAX_BATCH_LANES,
) -> list[list[int]]:
    """Partition spec indices into batchable groups.

    Groups are keyed by :func:`group_key` and ordered by each key's first
    occurrence in ``specs``; within a group, indices keep input order
    (each lane's seed/params pairing is position-stable, which is what
    lets callers map batched results back to input positions).  Groups
    larger than the lane cap are split into consecutive chunks so no
    single kernel exceeds ``max_lanes`` lanes.

    Args:
        specs: objects with the :func:`group_key` fields.
        max_lanes: lanes per kernel at most.

    Returns:
        Index groups covering ``0..len(specs)-1`` exactly once.  A group
        of size 1 means the spec has no batch partner and should run solo.
    """
    by_key: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        by_key.setdefault(group_key(spec), []).append(i)
    groups: list[list[int]] = []
    for members in by_key.values():
        for lo in range(0, len(members), max_lanes):
            groups.append(members[lo:lo + max_lanes])
    return groups
