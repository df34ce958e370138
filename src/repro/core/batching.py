"""Replicate batching: partition instance specs into batchable groups.

Calibration rounds, ensemble designs, and scenario-service requests are
dominated by *replicate batches*: many :class:`~repro.core.parallel.
InstanceSpec`s that share a region, scale, asset seed, and horizon and
differ only in RNG seed and cell parameters.  A national sweep is the
opposite shape: one spec per region.  :class:`~repro.epihiper.batch.
BatchedSimulation` advances either through one vectorized tick loop, K
lanes at a time, with bit-identical per-lane outputs: replicates share
their region's network, and lone regions ride as a disjoint union of
their networks.

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

from ..plane.bundle import AssetKey
from ..synthpop.regions import get_region

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .parallel import InstanceSpec

#: Cap on lanes sharing one batched kernel: wider batches amortise
#: per-tick dispatch further but grow the stacked working set, and past
#: the cache-friendly width gain nothing.
MAX_BATCH_LANES: int = 64


def group_key(spec: "InstanceSpec") -> tuple[AssetKey, int]:
    """The key two specs must agree on to ride one batch as replicates.

    The canonical :class:`~repro.plane.bundle.AssetKey` (which pins the
    shared population/network/surveillance bundle — the same key the
    runner cache, fan-out preload, and stored bundle use) plus the tick
    horizon.  Cell parameters and seeds deliberately do not participate:
    the batched engine takes heterogeneous cells and RNG streams as
    lanes.  A spec alone under its key may still share a batch, as one
    network of a union (:func:`batch_groups`).  In the rare case a
    parameter produces a structurally incompatible model the driver's
    constructor raises :class:`~repro.epihiper.batch.BatchIncompatible`,
    and the worker entry (``core/parallel._execute_group``) re-runs the
    group as one group per spec.
    """
    return (AssetKey.of_spec(spec), int(spec.n_days))


def _persons(spec) -> int | None:
    """The synthetic persons of ``spec``'s region at its scale, or None
    for an unknown region (which then runs, and fails, alone)."""
    try:
        region = get_region(spec.region_code)
    except KeyError:
        return None
    return region.scaled_population(spec.scale)


def batch_groups(
    specs: Sequence[Any],
) -> list[list[int]]:
    """Partition spec indices into batchable groups.

    Specs that share a :func:`group_key` form one group, split into
    consecutive chunks of at most :data:`MAX_BATCH_LANES`.  A spec alone
    under its key — a *lone* spec — has no replicate partner; the lone
    specs of one horizon are packed, in input order, into unions of their
    different networks: a union takes the next lone spec while its
    persons stay within the largest lone spec's of that horizon (and its
    lanes within :data:`MAX_BATCH_LANES`), else a new union starts.  The
    bound comes from the input, so a union's stacks never outgrow what
    the largest lone lane already costs alone.

    Groups are ordered by each key's first occurrence in ``specs``, a
    union at its first member's; within a group, indices keep input order
    (each lane's seed/params pairing is position-stable, which is what
    lets callers map batched results back to input positions).

    Args:
        specs: objects with the :func:`group_key` fields.

    Returns:
        Index groups covering ``0..len(specs)-1`` exactly once.  A group
        of size 1 runs solo.
    """
    by_key: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        by_key.setdefault(group_key(spec), []).append(i)
    # Lone specs by horizon, with their persons; first member -> union.
    lone: dict[int, list[tuple[int, int]]] = {}
    unions: dict[int, list[int]] = {}
    for members in by_key.values():
        if len(members) == 1:
            i = members[0]
            n = _persons(specs[i])
            if n is None:
                unions[i] = [i]
            else:
                lone.setdefault(int(specs[i].n_days), []).append((i, n))
    # Next-fit over each horizon's lone specs, in input order.
    for sized in lone.values():
        cap = max(n for _i, n in sized)
        union: list[int] = []
        load = 0
        for i, n in sized:
            if union and (load + n > cap or len(union) == MAX_BATCH_LANES):
                union, load = [], 0
            if not union:
                unions[i] = union
            union.append(i)
            load += n
    groups: list[list[int]] = []
    for members in by_key.values():
        if len(members) == 1:
            if members[0] in unions:
                groups.append(unions[members[0]])
            continue
        for lo in range(0, len(members), MAX_BATCH_LANES):
            groups.append(members[lo:lo + MAX_BATCH_LANES])
    return groups
