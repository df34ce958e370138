"""Transmission: Eq. (1) of Appendix D, written once over lane stacks.

For a contact edge e between susceptible person P_s (state X_i) and
infectious person P_i (state X_k), the propensity of the transition into the
exposed state X_j is::

    rho(P_s, P_i, T_ijk) = [ T * w_e * sigma(P_s) * iota(P_i) * omega(T_ijk) ]

with T the contact duration, w_e the edge weight, sigma / iota the person
susceptibility / infectivity (state value times per-node scaling trait), and
omega the transmission rate, scaled by the model's global transmissibility.
Under the independence assumption the paper states, summing propensities and
running Gillespie over one tick is equivalent to an independent Bernoulli per
contact with p = 1 - exp(-rho); we use the per-contact form because it also
yields the causing contact directly (EpiHiper records which contact caused
each transmission).

The driver, :class:`~repro.epihiper.batch.BatchedSimulation`, calls
:func:`lane_transmissions` once per tick with its ``(K, N)`` / ``(K, E)``
lane stacks (K = 1 for a solo run); :func:`transmission_step` is one
lane's tick over loose arrays with the kernel given.  The driver hands in
state it maintains where ``health`` changes (each lane's infectious mask
and its frontier degree sum) and the raw edge state (suppression counts
and the base activity flags), so a frontier tick reads flags only on the
persons and edges it gathers.  A tick has three stages, each written once:

Candidate enumeration (:class:`CandidateScan`)
    Two kernels.  ``dense`` is one scan over the doubled-edge layout
    (both contact directions of every edge, for all lanes at once); only
    a dense tick builds the ``(K, N)`` susceptible masks and the
    ``(K, E)`` activity mask.  ``frontier`` gathers, lane by lane, only
    the edges incident to the lane's infectious set through the
    :class:`~repro.epihiper.interventions.IncidentEdges` CSR and reads
    state and activity on those rows alone — O(frontier degree) instead
    of O(|E|), the early-epidemic common case.  A candidate contact
    requires an infectious endpoint, so both kernels enumerate *exactly*
    the same contacts, in the same order (forward then backward
    direction, ascending edge).

The rule (:func:`auto_backend`)
    Frontier while the gathered incident-slot count (the infectious
    sets' degree sum, summed over the batch's lanes) stays below
    ``FRONTIER_DENSE_CROSSOVER`` of the edge count, dense afterwards; one
    decision per tick serves every lane, so the dense scan stays one
    stacked operation.  The driver keeps the degree sums current, so the
    decision is O(1).

Sampling (:func:`sample_transmissions`)
    Eq. (1) over the lane-concatenated candidates, then per lane one
    uniform per candidate and one permutation over the firing contacts
    (each exposed person's attributed contact is uniform among them).

The kernel choice never changes the RNG consumption, so whichever kernel
the rule picks — and whatever the batch width — the events for the same
stream are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .disease import DiseaseModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .interventions import IncidentEdges

#: Contact durations in the network are minutes; propensities use days.
MINUTES_PER_DAY: float = 24.0 * 60.0

#: The rule's crossover: use the frontier kernel while the summed degree of
#: the infectious sets being resolved (gathered CSR slots) is below this
#: fraction of |E|.  The frontier pays a sort over the gathered rows and a
#: gather per lane; the stacked dense scan pays one pass over the doubled
#: edges for all its lanes.  Measured with one lane on VA at 1e-3, 4e-3 and
#: 1e-2 (30k-300k edges), the two break even at 0.15 gathered slots per edge
#: (~7.5% prevalence) and stay within ~10% of each other from 0.1 to 0.2, so
#: a misprediction near the boundary is cheap.  A 16-lane batch crosses at
#: the same summed workload, i.e. in its first few seeded ticks.
FRONTIER_DENSE_CROSSOVER: float = 0.15


class TransmissionBackend(Enum):
    """The kernel that enumerates a tick's candidate contacts: the two
    answers of :func:`auto_backend`."""

    DENSE = "dense"
    FRONTIER = "frontier"


@dataclass(frozen=True, slots=True)
class TransmissionEvents:
    """Newly exposed persons of one tick, with attribution."""

    pids: np.ndarray  #: persons leaving a susceptible state
    exposed_codes: np.ndarray  #: state each person enters
    infectors: np.ndarray  #: the contact that caused each transition
    n_candidates: int  #: directed susceptible-infectious contacts evaluated


def auto_backend(workload: float, n_edges: int) -> TransmissionBackend:
    """The kernel for a gather workload: frontier while the summed
    frontier degree of a tick's lanes stays within
    ``FRONTIER_DENSE_CROSSOVER * |E|``, dense afterwards."""
    if workload <= FRONTIER_DENSE_CROSSOVER * n_edges:
        return TransmissionBackend.FRONTIER
    return TransmissionBackend.DENSE


class CandidateScan:
    """Candidate contacts of a lane stack over one network.

    Holds the network's edge columns as the bundle stores them (int32
    ids and durations) and, from the first dense tick on, the
    doubled-edge lookups of the stacked dense scan (40 B per edge: intp
    ids, which every dense tick's takes index, and int32 durations —
    built per engine and dropped with it, never cached per network) plus
    its boolean scratch.  Every gather widens what it reads once, ids to
    ``intp`` and durations and weights to float64, so the candidate
    columns are the same whatever the stored widths.
    """

    def __init__(self, source: np.ndarray, target: np.ndarray,
                 duration: np.ndarray) -> None:
        self.source = source
        self.target = target
        self.duration = duration
        self._tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._scratch: np.ndarray | None = None
        self._active: np.ndarray | None = None

    def candidates(self, kernel, model, health, infectious, supp_count,
                   base_active, weights, incident):
        """Every lane's candidate contacts as one lane-concatenated batch.

        ``kernel`` is the tick's :class:`TransmissionBackend`;
        ``health`` / ``infectious`` are the ``(K, N)`` state codes and
        maintained infectious masks, ``supp_count`` the ``(K, E)``
        per-lane suppression counts, ``weights`` each lane's ``(E,)``
        edge-weight column (K of them: lanes that never rescale weights
        all pass the network's one shared column), ``base_active`` the
        shared ``(E,)`` base activity (an edge is active when its base
        flag is set and nothing suppresses it), and ``incident`` the
        CSR the frontier kernel gathers through.

        Returns:
            ``(sus_ids, inf_ids, dur, w, counts)``: lane-local person ids
            and per-contact columns concatenated lane by lane, and the
            ``(K,)`` per-lane candidate counts.
        """
        if kernel is TransmissionBackend.DENSE:
            return self._dense(model, health, infectious, supp_count,
                               base_active, weights)
        if incident is None:
            raise ValueError(
                "the frontier kernel requires an IncidentEdges index")
        parts = [self._frontier(model, health[i], infectious[i],
                                supp_count[i], base_active, weights[i],
                                incident)
                 for i in range(health.shape[0])]
        counts = np.array([p[0].shape[0] for p in parts], dtype=np.int64)
        if len(parts) == 1:
            return (*parts[0], counts)
        return (*(np.concatenate([p[c] for p in parts]) for c in range(4)),
                counts)

    def _dense(self, model, health, inf, supp_count, base_active, weights):
        """Dense candidates of K stacked lanes, in :meth:`candidates` form.

        The one place the full ``(K, N)`` susceptible masks and ``(K, E)``
        activity mask are built.  Both contact directions are evaluated in
        one ``(K, 2E)`` scan over the doubled-edge layout: column ``c`` is
        the forward direction of edge ``c`` for ``c < E`` and the backward
        direction of edge ``c - E`` otherwise.  ``np.flatnonzero`` over it
        is row-major, so each lane's candidates come out
        forward-then-backward in ascending edge order.
        """
        n_lanes = health.shape[0]
        n_edges = self.source.shape[0]
        if self._tables is None:
            # The id tables index every tick's (K, 2E) takes, so they
            # are widened once here; durations are read per candidate.
            self._tables = (
                np.concatenate([self.source, self.target],
                               dtype=np.intp),  # infectious
                np.concatenate([self.target, self.source],
                               dtype=np.intp),  # susceptible
                np.concatenate([self.duration, self.duration]))
        inf_of, sus_of, dur_of = self._tables
        if self._scratch is None or self._scratch.shape[1] < n_lanes:
            self._scratch = np.empty((2, n_lanes, 2 * n_edges), dtype=bool)
            self._active = np.empty((n_lanes, n_edges), dtype=bool)
        cand = self._scratch[0, :n_lanes]
        other = self._scratch[1, :n_lanes]
        active = self._active[:n_lanes]
        np.equal(supp_count, 0, out=active)
        active &= base_active
        sus = np.take(model.is_susceptible, health)
        np.take(inf, inf_of, axis=1, out=cand)
        np.take(sus, sus_of, axis=1, out=other)
        cand &= other
        cand[:, :n_edges] &= active
        cand[:, n_edges:] &= active

        flat = np.flatnonzero(cand)
        # Per-lane counts from the sorted flat indices (row k occupies
        # [k*2E, (k+1)*2E)) — a log-time search instead of a (K, 2E) sum.
        bounds = np.searchsorted(
            flat, np.arange(1, n_lanes + 1) * (2 * n_edges))
        counts = np.diff(bounds, prepend=0)
        lane = np.repeat(np.arange(n_lanes, dtype=np.int64), counts)
        col = flat - lane * (2 * n_edges)
        edge = np.where(col < n_edges, col, col - n_edges)
        # Lane by lane: a lane reads the shared column or its own copy.
        w = np.empty(edge.shape[0], dtype=np.float64)
        for wl, lo, hi in zip(weights, bounds - counts, bounds):
            w[lo:hi] = wl[edge[lo:hi]]
        return (sus_of[col], inf_of[col],
                dur_of[col].astype(np.float64, copy=False), w, counts)

    def _frontier(self, model, health, inf, supp_count, base_active, weight,
                  incident):
        """One lane's candidates gathered from its infectious frontier.

        ``edges_of``'s sort-dedup both drops rows whose two endpoints are
        infectious and puts the gathered rows in ascending — dense
        enumeration — order.  State flags and edge activity are looked up
        on the gathered rows and their endpoints only, so nothing here
        scales with |E|.
        """
        rows = incident.edges_of(np.flatnonzero(inf))
        if not rows.size:  # nobody infectious (an extinct lane)
            ids, vals = np.empty(0, np.intp), np.empty(0, np.float64)
            return ids, ids, vals, vals
        src = self.source[rows].astype(np.intp, copy=False)
        tgt = self.target[rows].astype(np.intp, copy=False)
        act = (supp_count[rows] == 0) & base_active[rows]
        sus = model.is_susceptible
        fwd = act & inf[src] & sus[health[tgt]]  # src infects tgt
        bwd = act & inf[tgt] & sus[health[src]]  # tgt infects src
        erows = np.concatenate([rows[fwd], rows[bwd]])
        return (np.concatenate([tgt[fwd], src[bwd]]),
                np.concatenate([src[fwd], tgt[bwd]]),
                self.duration[erows].astype(np.float64, copy=False),
                weight[erows].astype(np.float64, copy=False))


def _no_exposures(k: int):
    return (np.zeros(k, dtype=np.int64), np.empty(0, np.int64),
            np.empty(0, np.int8), np.empty(0, np.int64))


def sample_transmissions(model: DiseaseModel, taus, rngs, health,
                         node_sus, node_inf, cand):
    """Eq. (1) and the per-lane draws over a lane-concatenated batch.

    ``cand`` is :meth:`CandidateScan.candidates` output; ``health`` /
    ``node_sus`` / ``node_inf`` are ``(K, N)`` lane stacks; ``taus`` and
    ``rngs`` are each lane's transmissibility and generator (the sigma /
    iota / omega tables and exposure map are ``model``'s, shared by all
    lanes).  The arithmetic runs once over the whole batch and is
    elementwise, so each lane's slice equals a one-lane evaluation.  Then,
    in lane order, each lane's generator draws one uniform per candidate
    (``random(out=...)`` on its slice consumes the stream like
    ``random(n)``) and one permutation over its firing contacts; a person
    reached by several firing contacts is exposed once, attributed to the
    first in permuted order.

    Returns:
        ``(sizes, pids, codes, infectors)``: per-lane exposure counts, and
        the lane-major exposed pids (ascending per lane), entered codes
        and infectors.
    """
    sus_ids, inf_ids, dur, w, counts = cand
    k, n = health.shape
    total = sus_ids.shape[0]
    if not total:
        return _no_exposures(k)
    if k > 1:
        offsets = np.repeat(np.arange(k, dtype=np.int64) * n, counts)
        gsus, ginf = sus_ids + offsets, inf_ids + offsets
    else:
        gsus, ginf = sus_ids, inf_ids
    health = health.reshape(-1)
    hs = health[gsus]
    hi = health[ginf]
    sigma = model.susceptibility[hs] * node_sus.reshape(-1)[gsus]
    iota = model.infectivity[hi] * node_inf.reshape(-1)[ginf]
    omega = model.omega[hs, hi]
    rho = (dur / MINUTES_PER_DAY) * w * sigma * iota * omega
    rho *= np.repeat(np.asarray(taus, dtype=np.float64), counts)
    p = -np.expm1(-rho)  # 1 - exp(-rho), numerically stable for small rho

    u = np.empty(total, dtype=np.float64)
    starts, lanes = [], []
    off = 0
    for i, c in enumerate(counts.tolist()):
        if c:
            rngs[i].random(out=u[off:off + c])
            starts.append(off)
            lanes.append(i)
            off += c
    fired = u < p
    perms, perm_lanes = [], []
    for i, nf in zip(lanes, np.add.reduceat(fired, starts).tolist()):
        if nf:
            perms.append(rngs[i].permutation(nf))
            perm_lanes.append(i)
    if not perms:
        return _no_exposures(k)
    f_sus = sus_ids[fired]
    f_inf = inf_ids[fired]
    if len(perms) == 1:
        perm = perms[0]
        key_base = perm_lanes[0] * n
    else:
        sizes = [q.shape[0] for q in perms]
        perm = np.concatenate(perms)
        perm += np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
        key_base = np.repeat(np.asarray(perm_lanes, dtype=np.int64) * n,
                             sizes)
    # Unique on ``lane * N + pid`` is the per-lane uniques concatenated,
    # first occurrences included.
    key, first = np.unique(key_base + f_sus[perm], return_index=True)
    lane_of, pids = np.divmod(key, n)
    return (np.bincount(lane_of, minlength=k), pids,
            model.exposed_of[health[key]], f_inf[perm][first])


def lane_transmissions(model: DiseaseModel, taus, rngs, health, infectious,
                       workloads, node_sus, node_inf, supp_count,
                       base_active, weights, scan: CandidateScan, incident):
    """One tick of transmission for K lanes: pick, enumerate, sample.

    The kernel is :func:`auto_backend` over the sum of the lanes'
    ``workloads`` (each lane's frontier degree sum).  The state and edge
    stacks are as in :meth:`CandidateScan.candidates`, the rest as in
    :func:`sample_transmissions`.

    Returns:
        ``(counts, sizes, pids, codes, infectors)``: per-lane candidate
        counts, then :func:`sample_transmissions`' exposures.
    """
    kernel = auto_backend(workloads.sum(), scan.source.shape[0])
    cand = scan.candidates(kernel, model, health, infectious, supp_count,
                           base_active, weights, incident)
    return (cand[4], *sample_transmissions(model, taus, rngs, health,
                                           node_sus, node_inf, cand))


def transmission_step(
    model: DiseaseModel,
    health: np.ndarray,
    node_susceptibility: np.ndarray,
    node_infectivity: np.ndarray,
    edge_source: np.ndarray,
    edge_target: np.ndarray,
    edge_active: np.ndarray,
    edge_weight: np.ndarray,
    edge_duration_min: np.ndarray,
    rng: np.random.Generator,
    *,
    kernel: TransmissionBackend = TransmissionBackend.DENSE,
    incident: "IncidentEdges | None" = None,
) -> TransmissionEvents:
    """Evaluate the active contacts of one tick and sample transmissions.

    One lane's tick over loose arrays, with the kernel given rather than
    picked: the reference the kernel-equivalence tests drive.  The
    infectious mask is derived from ``health`` (an engine maintains it
    instead, and keeps its dense scan's lookups across ticks).

    Args:
        model: the disease model supplying state-level sigma / iota / omega.
        health: per-person state codes.
        node_susceptibility / node_infectivity: per-person scaling traits
            (the rw ``susceptibility`` / ``infectivity`` values of Table V).
        edge_*: the contact-network columns; only ``active`` edges transmit.
        rng: the simulation's random stream.
        kernel: candidate-enumeration kernel; both consume the RNG stream
            identically and return bit-identical events.
        incident: the person -> incident-edge CSR ``frontier`` gathers
            through.

    Returns:
        One event per newly exposed person.  A person reachable through
        several firing contacts is exposed once, attributed to a uniformly
        random firing contact.
    """
    infectious = np.take(model.is_infectious, health)[None]
    cand = CandidateScan(edge_source, edge_target, edge_duration_min
                         ).candidates(
        kernel, model, health[None], infectious,
        np.zeros((1, edge_active.shape[0]), np.int8), edge_active,
        [edge_weight], incident)
    _sizes, pids, codes, infectors = sample_transmissions(
        model, [model.transmissibility], [rng], health[None],
        node_susceptibility[None], node_infectivity[None], cand)
    return TransmissionEvents(pids=pids, exposed_codes=codes,
                              infectors=infectors,
                              n_candidates=int(cand[4][0]))
