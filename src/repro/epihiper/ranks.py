"""Simulated-MPI execution accounting (strong scaling, Figure 7 middle).

EpiHiper is a C++/MPI code; here the epidemic dynamics run in one vectorised
process, and this module reproduces the *parallel execution profile* that a
P-rank MPI run of the same dynamics would have: per-rank edge work from the
partition, per-tick halo exchange of newly exposed node states across cut
edges, and a bulk-synchronous time model (each tick costs the maximum rank
work plus communication, as with Intel MPI collectives on Bridges).

This is the substitution documented in DESIGN.md: communication volume is
accounted rather than physically transported, which preserves the scaling
*shape* — near-linear speedup while compute dominates, then flattening and
eventually slowdown as per-tick message costs overtake shrinking per-rank
work (Section VI: "It may even become slower with too many processes.").

Cost model (arbitrary consistent time units)::

    tick compute(rank) = owned_edges(rank) * C_SCAN          # edge scan
                       + candidates * share * C_EVAL          # Eq. 1 kernels
                       + transitions * share * C_TRANSITION   # state updates
    tick comm          = ALPHA * log2(p) + BETA * p           # collectives
                       + halo_bytes_tick * C_HALO_BYTE        # state halos

Every rank scans its whole partition every tick (the network is resident in
memory, Section III), which is what makes EpiHiper's runtime linear in input
size at fixed processor count (Figure 7 top).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..synthpop.contacts import ContactNetwork
from .engine import SimulationResult
from .partition import Partition

#: Per-edge scan cost per tick (dominant term, linear in network size).
C_SCAN: float = 1.0
#: Per evaluated susceptible-infectious contact (Eq. 1 kernel).
C_EVAL: float = 2.0
#: Per state transition applied.
C_TRANSITION: float = 4.0
#: Collective-latency terms per tick: ALPHA*log2(p) + BETA*p.
ALPHA: float = 100.0
BETA: float = 14.0
#: Per halo byte shipped.
C_HALO_BYTE: float = 0.05
BYTES_PER_STATE_UPDATE: int = 12  #: (node id, new state, tick)


@dataclass(frozen=True, slots=True)
class RankProfile:
    """Execution profile of one simulated MPI run.

    Attributes:
        n_ranks: number of simulated processes.
        per_rank_edges: edges owned by each rank.
        cut_edges: edges crossing ranks (halo edges).
        compute_time: modelled compute time (max-rank work summed over ticks).
        comm_time: modelled communication time.
        halo_bytes: total bytes of state updates exchanged.
    """

    n_ranks: int
    per_rank_edges: np.ndarray
    cut_edges: int
    compute_time: float
    comm_time: float
    halo_bytes: int

    @property
    def total_time(self) -> float:
        """Modelled wall-clock for the run."""
        return self.compute_time + self.comm_time

    def speedup_over(self, serial: "RankProfile") -> float:
        """Speedup relative to a 1-rank profile of the same run."""
        return serial.total_time / self.total_time


def simulate_rank_execution(
    result: SimulationResult,
    net: ContactNetwork,
    partition: Partition,
) -> RankProfile:
    """Profile how ``result``'s dynamics would execute on a partition.

    Args:
        result: a finished simulation (supplies the work counters).
        net: the simulated contact network.
        partition: edge/node ownership from :mod:`repro.epihiper.partition`.
    """
    if partition.node_owner.shape[0] != net.n_nodes:
        raise ValueError("partition does not match network")
    p = partition.n_parts
    per_rank_edges = partition.edge_counts().astype(np.int64)
    cut = partition.cut_edges(net)
    cut_fraction = cut / max(1, net.n_edges)

    n_ticks = max(1, result.n_days)
    max_edges = int(per_rank_edges.max()) if per_rank_edges.size else 0
    share = max_edges / max(1, net.n_edges)

    transitions = result.metrics.value("engine.transitions")
    compute = (
        n_ticks * max_edges * C_SCAN
        + result.metrics.value("engine.contacts_evaluated") * share * C_EVAL
        + transitions * share * C_TRANSITION
    )

    # Halo traffic: transitions on nodes with cut edges must be shipped to
    # the neighbouring ranks; approximate the touched fraction by the cut
    # fraction (each update goes to at most a couple of partner ranks).
    halo_updates = int(transitions * cut_fraction * 2)
    halo_bytes = halo_updates * BYTES_PER_STATE_UPDATE
    comm = 0.0
    if p > 1:
        comm = (
            n_ticks * (ALPHA * math.log2(p) + BETA * p)
            + halo_bytes * C_HALO_BYTE
        )

    return RankProfile(
        n_ranks=p,
        per_rank_edges=per_rank_edges,
        cut_edges=cut,
        compute_time=float(compute),
        comm_time=float(comm),
        halo_bytes=halo_bytes,
    )


def strong_scaling_curve(
    result: SimulationResult,
    net: ContactNetwork,
    rank_counts: list[int],
) -> list[RankProfile]:
    """Profiles across ``rank_counts`` for a strong-scaling study, each
    partitioned by the paper's threshold algorithm."""
    from .partition import partition_threshold

    return [simulate_rank_execution(result, net, partition_threshold(net, p))
            for p in rank_counts]
