"""Contact-network derivation from co-occupancy (Appendix C, network model).

From the people-location visit table we form ``G_max`` (all pairs of people
simultaneously present at a location), then apply sub-location contact
modelling to retain a realistic subset, producing the typical-day contact
network ``G_Wednesday`` used by the simulations.

Each retained edge carries the paper's attributes (Section III): the two
person ids, the interaction start time and duration, and the activity
*context* of each endpoint (which may differ: a shopper contacts a worker).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..params import DEFAULT_SCALE, DEFAULT_SEED
from .activities import assign_activities
from .locations import VisitTable, assign_locations
from .persons import Population, generate_population
from .regions import Region, get_region

#: Locations with at most this many co-present visitors form a full clique
#: (small venues: households, small offices).
DENSE_THRESHOLD: int = 12

#: In larger venues each visitor contacts about this many random others.
CONTACTS_PER_VISITOR: int = 6

#: Minimum temporal overlap (minutes) for a contact to be retained.
MIN_OVERLAP_MIN: int = 5


@dataclass(slots=True)
class ContactNetwork:
    """Columnar undirected contact network for one region.

    Edges are stored once with ``source < target``.  The ``active`` flag
    is each edge's base activity, which file round-trips may carry as
    False; the engine reads it in place and never writes it.
    Interventions turn edges on and off during a simulation (Section III:
    "each edge ... can be turned on and off dynamically") through each
    lane's :class:`~repro.epihiper.interventions.EdgeSuppressor`, and an
    edge is active when its flag is set and nothing suppresses it.
    """

    region_code: str
    n_nodes: int
    source: np.ndarray  #: person ids: int64 as built, int32 in a bundle
    target: np.ndarray  #: person ids: int64 as built, int32 in a bundle
    start: np.ndarray  #: int32 minutes after midnight
    duration: np.ndarray  #: int32 minutes of overlap
    source_activity: np.ndarray  #: int8 context of source endpoint
    target_activity: np.ndarray  #: int8 context of target endpoint
    weight: np.ndarray  #: float32 edge weight w_e in Eq. (1)
    active: np.ndarray = field(default_factory=lambda: np.empty(0, bool))

    def __post_init__(self) -> None:
        m = self.source.shape[0]
        for name in ("target", "start", "duration", "source_activity",
                     "target_activity", "weight"):
            if getattr(self, name).shape[0] != m:
                raise ValueError(f"edge column {name} length mismatch")
        if self.active.size == 0:
            self.active = np.ones(m, dtype=bool)
        elif self.active.shape[0] != m:
            raise ValueError("edge column active length mismatch")
        if m and not (self.source < self.target).all():
            raise ValueError("edges must be canonical: source < target")

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.source.shape[0])

    def degrees(self) -> np.ndarray:
        """Degree of every node (counting inactive edges too)."""
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        np.add.at(deg, self.source, 1)
        np.add.at(deg, self.target, 1)
        return deg

    def mean_degree(self) -> float:
        """Average contact degree."""
        return 2.0 * self.n_edges / max(1, self.n_nodes)

    def subset(self, mask: np.ndarray) -> "ContactNetwork":
        """A new network containing only edges where ``mask`` is true."""
        return ContactNetwork(
            region_code=self.region_code,
            n_nodes=self.n_nodes,
            source=self.source[mask],
            target=self.target[mask],
            start=self.start[mask],
            duration=self.duration[mask],
            source_activity=self.source_activity[mask],
            target_activity=self.target_activity[mask],
            weight=self.weight[mask],
            active=self.active[mask],
        )


def _triu_table(threshold: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every dense group size's local pairs ``np.triu_indices(g, k=1)``,
    concatenated for ``g = 0..threshold``, and the offset of each size's
    block (indexed by ``g``)."""
    blocks = [np.triu_indices(g, k=1) for g in range(threshold + 1)]
    counts = [i.size for i, _j in blocks]
    offset = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return (np.concatenate([i for i, _j in blocks]),
            np.concatenate([j for _i, j in blocks]), offset)


_TRIU_I, _TRIU_J, _TRIU_OFFSET = _triu_table(DENSE_THRESHOLD)


def _ranks(counts: np.ndarray) -> np.ndarray:
    """``0..c-1`` for each ``c`` in ``counts``, concatenated."""
    return (np.arange(counts.sum())
            - np.repeat(np.cumsum(counts) - counts, counts))


def _candidate_pairs(
    sizes: np.ndarray, group_starts: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Visit-row index pairs ``(i, j)`` to evaluate, group after group.

    Dense groups (``2 <= g <= DENSE_THRESHOLD``) contribute every local
    pair; sparse groups a random sample of ``g * CONTACTS_PER_VISITOR // 2``
    candidate pairs minus self-pairs, as ``(min, max)`` (the sub-location
    contact model).  All sparse draws come from one ``rng.integers`` call
    whose bounds repeat each group's ``g`` for its i-draws then its
    j-draws, in group order: the same stream, and the same final generator
    state, as drawing group by group.
    """
    dense = np.flatnonzero((sizes >= 2) & (sizes <= DENSE_THRESHOLD))
    g = sizes[dense]
    n = g * (g - 1) // 2
    pos = _TRIU_OFFSET[np.repeat(g, n)] + _ranks(n)
    grp_d, li_d, lj_d = np.repeat(dense, n), _TRIU_I[pos], _TRIU_J[pos]

    sparse = np.flatnonzero(sizes > DENSE_THRESHOLD)
    g = sizes[sparse]
    n = (g * CONTACTS_PER_VISITOR) // 2
    draws = rng.integers(0, np.repeat(g, 2 * n))
    first = np.repeat(np.cumsum(2 * n) - 2 * n, n) + _ranks(n)
    i, j = draws[first], draws[first + np.repeat(n, n)]
    keep = i != j
    i, j = i[keep], j[keep]
    grp_s = np.repeat(sparse, n)[keep]

    # Both halves are already in group order; a stable merge restores the
    # group-after-group order of the candidates across them.
    grp = np.concatenate([grp_d, grp_s])
    merge = np.argsort(grp, kind="stable")
    base = group_starts[grp[merge]]
    li = np.concatenate([li_d, np.minimum(i, j)])[merge]
    lj = np.concatenate([lj_d, np.maximum(i, j)])[merge]
    return base + li, base + lj


def derive_contacts(
    visits: VisitTable,
    n_nodes: int,
    region_code: str,
    rng: np.random.Generator,
) -> ContactNetwork:
    """Apply co-occupancy + sub-location modelling to build the network.

    Args:
        visits: the bipartite people-location table.
        n_nodes: population size (nodes may be isolated).
        region_code: postal code recorded on the network.
        rng: random generator for the sub-location sampling.

    Returns:
        The deduplicated typical-day :class:`ContactNetwork`.
    """
    order = np.argsort(visits.location, kind="stable")
    loc = visits.location[order]
    person = visits.person[order]
    kind = visits.kind[order]
    start = visits.start[order]
    end = start + visits.duration[order]

    group_starts = np.concatenate([[0], np.flatnonzero(np.diff(loc)) + 1])
    sizes = np.diff(np.append(group_starts, loc.size))
    ai, aj = _candidate_pairs(sizes, group_starts, rng)

    pi, pj = person[ai], person[aj]
    ov_start = np.maximum(start[ai], start[aj])
    overlap = np.minimum(end[ai], end[aj]) - ov_start
    ok = (overlap >= MIN_OVERLAP_MIN) & (pi != pj)
    ai, aj, pi, pj = ai[ok], aj[ok], pi[ok], pj[ok]
    # Canonicalise by person id; carry each endpoint's own context.
    swap = pi > pj
    source = np.where(swap, pj, pi)
    target = np.where(swap, pi, pj)
    ka = np.where(swap, kind[aj], kind[ai]).astype(np.int8)
    kb = np.where(swap, kind[ai], kind[aj]).astype(np.int8)
    e_start = ov_start[ok].astype(np.int32)
    e_dur = overlap[ok].astype(np.int32)

    # Deduplicate (person pair, source context): keep the longest overlap.
    key = (source * n_nodes + target) * 8 + ka
    order = np.lexsort((-e_dur, key))
    key_sorted = key[order]
    first = np.ones(key_sorted.size, dtype=bool)
    first[1:] = key_sorted[1:] != key_sorted[:-1]
    sel = order[first]

    return ContactNetwork(
        region_code=region_code,
        n_nodes=n_nodes,
        source=source[sel],
        target=target[sel],
        start=e_start[sel],
        duration=e_dur[sel],
        source_activity=ka[sel],
        target_activity=kb[sel],
        weight=np.ones(sel.size, dtype=np.float32),
    )


def build_region_network(
    region: Region | str,
    *,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
) -> tuple[Population, ContactNetwork]:
    """End-to-end synthesis: persons -> activities -> locations -> contacts.

    This is the public entry point for generating one region's inputs; it is
    deterministic in ``(region, scale, seed)``.
    """
    if isinstance(region, str):
        region = get_region(region)
    pop = generate_population(region, scale=scale, seed=seed)
    rng = np.random.default_rng((seed, region.fips, 1))
    acts = assign_activities(pop, rng)
    visits = assign_locations(pop, acts, rng)
    net = derive_contacts(visits, pop.size, region.code, rng)
    return pop, net
