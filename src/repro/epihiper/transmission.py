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
:func:`lane_transmissions` once per tick with its flat lane stacks (K = 1
for a solo run): lane i owns a run of persons and a run of edges, and the
lanes may sit on different networks (a disjoint union).  The driver
hands in state it maintains where ``health`` changes (each lane's
infectious mask and its frontier degree sum) and each lane's suppression
counts; a lane's network — its edge columns, base activity flags and
incident CSR — is the driver's
:class:`~repro.epihiper.engine.SharedNetwork` for it, read in place, so
a frontier tick reads flags only on the persons and edges it gathers.  A
tick has three stages, each written once:

Candidate enumeration (:class:`CandidateScan`)
    Two kernels.  ``dense`` is one scan over the doubled-edge layout
    (both contact directions of every edge) per run of lanes on one
    network, all those lanes at once; only a dense tick builds the
    ``(k, N)`` susceptible masks and the ``(k, E)`` activity mask.
    ``frontier`` gathers, lane by lane, only the edges incident to the
    lane's infectious set through its network's
    :class:`~repro.epihiper.interventions.IncidentEdges` CSR and reads
    state and activity on those rows alone — O(frontier degree) instead
    of O(|E|), the early-epidemic common case; a lane whose frontier
    degree sum is 0 gathers nothing.  A candidate contact requires an
    infectious endpoint, so both kernels enumerate *exactly* the same
    contacts, in the same order (forward then backward direction,
    ascending edge, lane by lane).

The rule (:func:`auto_backend`)
    Frontier while the gathered incident-slot count (the infectious
    sets' degree sum, summed over the batch's lanes) stays below
    ``FRONTIER_DENSE_CROSSOVER`` of the edge count of the union's
    distinct networks, dense afterwards; one decision per tick serves
    every lane.  The driver keeps the degree sums current, so the
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

from enum import Enum

import numpy as np

from .disease import DiseaseModel

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


def auto_backend(workload: float, n_edges: int) -> TransmissionBackend:
    """The kernel for a gather workload: frontier while the summed
    frontier degree of a tick's lanes stays within
    ``FRONTIER_DENSE_CROSSOVER * |E|``, dense afterwards."""
    if workload <= FRONTIER_DENSE_CROSSOVER * n_edges:
        return TransmissionBackend.FRONTIER
    return TransmissionBackend.DENSE


#: The candidate columns of a lane that gathers nothing (read only).
_NO_CANDIDATES = (np.empty(0, np.intp), np.empty(0, np.intp),
                  np.empty(0, np.float64), np.empty(0, np.float64))


class CandidateScan:
    """Candidate contacts of a lane stack over a disjoint union of networks.

    Lane ``i`` owns persons ``offsets[i]:offsets[i + 1]`` of the flat
    person stacks and the next ``E_i`` edges of the flat edge stacks, in
    lane order; lanes that replicate one network are the case where the
    offsets step by N and E.  Each lane brings its network's
    :class:`~repro.epihiper.engine.SharedNetwork`: lanes bringing the
    same object share one network, so its dense tables are built once.
    Every gather widens what it reads once, ids to ``intp`` and
    durations and weights to float64, so the candidate columns are the
    same whatever the stored widths.
    """

    def __init__(self, networks) -> None:
        #: per lane: (p0, p1, e0, e1, network)
        self._lanes: list[tuple] = []
        #: maximal runs of consecutive lanes on one network, one stacked
        #: dense scan each: [first lane, end lane, network]
        self._runs: list[list] = []
        p = e = 0
        for i, net in enumerate(networks):
            n, m = net.n_nodes, net.n_edges
            self._lanes.append((p, p + n, e, e + m, net))
            if self._runs and self._runs[-1][2] is net:
                self._runs[-1][1] = i + 1
            else:
                self._runs.append([i, i + 1, net])
            p, e = p + n, e + m
        #: the ``(K + 1,)`` person offsets: lane i's persons start here
        self.offsets = np.array([lane[0] for lane in self._lanes] + [p],
                                dtype=np.int64)
        #: the rule's |E|: the edges of the union's distinct networks
        #: (one network's for lanes that replicate it)
        self.n_edges = sum(net.n_edges for net in set(networks))

    def candidates(self, kernel, model, health, infectious, workloads,
                   supp_count, weights):
        """Every lane's candidate contacts as one lane-concatenated batch.

        ``kernel`` is the tick's :class:`TransmissionBackend`;
        ``health`` / ``infectious`` are the flat person stacks (state
        codes and maintained infectious masks), ``workloads`` each lane's
        frontier degree sum, ``supp_count`` the flat edge stack of
        suppression counts (an edge is active when its network's base
        flag is set and nothing suppresses it), and
        ``weights`` each lane's edge-weight column (lanes that never
        rescale weights pass their network's shared column).  On a
        frontier tick a lane whose workload is 0 — nobody infectious has
        a contact, as in an extinct lane — gathers nothing: no candidate
        means no draw, so skipping it changes no byte.

        Returns:
            ``(sus_ids, inf_ids, dur, w, counts)``: lane-local person ids
            and per-contact columns concatenated lane by lane, and the
            ``(K,)`` per-lane candidate counts.
        """
        parts = []
        if kernel is TransmissionBackend.DENSE:
            counts = []
            for a, b, net in self._runs:
                k = b - a
                first, last = self._lanes[a], self._lanes[b - 1]
                p0, p1, e0, e1 = first[0], last[1], first[2], last[3]
                *part, run_counts = self._dense(
                    net, model, health[p0:p1].reshape(k, -1),
                    infectious[p0:p1].reshape(k, -1),
                    supp_count[e0:e1].reshape(k, -1), weights[a:b])
                parts.append(part)
                counts.append(run_counts)
            counts = counts[0] if len(counts) == 1 else np.concatenate(counts)
        else:
            sizes = []
            for (p0, p1, e0, e1, net), load, weight in zip(
                    self._lanes, workloads.tolist(), weights):
                part = _NO_CANDIDATES if not load else self._frontier(
                    net, model, health[p0:p1], infectious[p0:p1],
                    supp_count[e0:e1], weight)
                parts.append(part)
                sizes.append(part[0].shape[0])
            counts = np.array(sizes, dtype=np.int64)
        if len(parts) == 1:
            return (*parts[0], counts)
        return (*[np.concatenate(col) for col in zip(*parts)], counts)

    def _dense(self, net, model, health, inf, supp_count, weights):
        """Dense candidates of k stacked lanes on ``net``, in
        :meth:`candidates` form with the run's ``(k,)`` counts.

        The one place the full ``(k, N)`` susceptible masks and ``(k, E)``
        activity mask are built: the lanes' unsuppressed edges ANDed, by
        broadcasting, with the network's one base activity column.  The
        doubled-edge lookups (40 B per edge: intp ids, which every dense
        tick's takes index, and int32 durations) and the scratch are
        built on the network's first dense tick and kept on it.  Both
        contact directions are evaluated in one ``(k, 2E)`` scan over the
        doubled-edge layout: column ``c`` is the forward direction of edge
        ``c`` for ``c < E`` and the backward direction of edge ``c - E``
        otherwise.  ``np.flatnonzero`` over it is row-major, so each
        lane's candidates come out forward-then-backward in ascending
        edge order.
        """
        n_lanes = health.shape[0]
        n_edges = net.n_edges
        if net.tables is None:
            # The id tables index every tick's (k, 2E) takes, so they
            # are widened once here; durations are read per candidate.
            net.tables = (
                np.concatenate([net.source, net.target],
                               dtype=np.intp),  # infectious
                np.concatenate([net.target, net.source],
                               dtype=np.intp),  # susceptible
                np.concatenate([net.duration, net.duration]))
        inf_of, sus_of, dur_of = net.tables
        if net.scratch is None or net.scratch.shape[1] < n_lanes:
            net.scratch = np.empty((2, n_lanes, 2 * n_edges), dtype=bool)
            net.live = np.empty((n_lanes, n_edges), dtype=bool)
        cand = net.scratch[0, :n_lanes]
        other = net.scratch[1, :n_lanes]
        active = net.live[:n_lanes]
        np.equal(supp_count, 0, out=active)
        active &= net.active
        sus = np.take(model.is_susceptible, health)
        np.take(inf, inf_of, axis=1, out=cand)
        np.take(sus, sus_of, axis=1, out=other)
        cand &= other
        cand[:, :n_edges] &= active
        cand[:, n_edges:] &= active

        flat = np.flatnonzero(cand)
        # Per-lane counts from the sorted flat indices (row k occupies
        # [k*2E, (k+1)*2E)) — a log-time search instead of a (k, 2E) sum.
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

    def _frontier(self, net, model, health, inf, supp_count, weight):
        """One lane's candidates gathered from its infectious frontier.

        ``edges_of``'s sort-dedup both drops rows whose two endpoints are
        infectious and puts the gathered rows in ascending — dense
        enumeration — order.  State flags and edge activity are looked up
        on the gathered rows and their endpoints only, so nothing here
        scales with |E|.
        """
        rows = net.incident.edges_of(np.flatnonzero(inf))
        if not rows.size:  # nobody infectious has a contact
            return _NO_CANDIDATES
        src = net.source[rows].astype(np.intp, copy=False)
        tgt = net.target[rows].astype(np.intp, copy=False)
        act = (supp_count[rows] == 0) & net.active[rows]
        sus = model.is_susceptible
        fwd = act & inf[src] & sus[health[tgt]]  # src infects tgt
        bwd = act & inf[tgt] & sus[health[src]]  # tgt infects src
        erows = np.concatenate([rows[fwd], rows[bwd]])
        return (np.concatenate([tgt[fwd], src[bwd]]),
                np.concatenate([src[fwd], tgt[bwd]]),
                net.duration[erows].astype(np.float64, copy=False),
                weight[erows].astype(np.float64, copy=False))


def _no_exposures(k: int):
    return (np.zeros(k, dtype=np.int64), np.empty(0, np.int64),
            np.empty(0, np.int8), np.empty(0, np.int64))


def sample_transmissions(model: DiseaseModel, taus, rngs, health,
                         node_sus, node_inf, offsets, cand):
    """Eq. (1) and the per-lane draws over a lane-concatenated batch.

    ``cand`` is :meth:`CandidateScan.candidates` output; ``health`` /
    ``node_sus`` / ``node_inf`` are flat person stacks whose lane ``i``
    starts at ``offsets[i]`` (``offsets`` has K + 1 entries, the last the
    stack length); ``taus`` and ``rngs`` are each lane's
    transmissibility and generator (the sigma / iota / omega tables and
    exposure map are ``model``'s, shared by all lanes).  The arithmetic
    runs once over the whole batch and is elementwise, so each lane's
    slice equals a one-lane evaluation.  Then, in lane order, each lane's
    generator draws one uniform per candidate (``random(out=...)`` on its
    slice consumes the stream like ``random(n)``) and one permutation
    over its firing contacts; a person reached by several firing contacts
    is exposed once, attributed to the first in permuted order.

    Returns:
        ``(sizes, pids, codes, infectors)``: per-lane exposure counts, and
        the lane-major exposed lane-local pids (ascending per lane),
        entered codes and lane-local infectors.
    """
    sus_ids, inf_ids, dur, w, counts = cand
    k = counts.shape[0]
    total = sus_ids.shape[0]
    if not total:
        return _no_exposures(k)
    if k > 1:
        shift = offsets[:-1].repeat(counts)
        gsus, ginf = sus_ids + shift, inf_ids + shift
    else:
        gsus, ginf = sus_ids, inf_ids
    hs = health[gsus]
    hi = health[ginf]
    sigma = model.susceptibility[hs] * node_sus[gsus]
    iota = model.infectivity[hi] * node_inf[ginf]
    omega = model.omega[hs, hi]
    rho = (dur / MINUTES_PER_DAY) * w * sigma * iota * omega
    rho *= np.asarray(taus, dtype=np.float64).repeat(counts)
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
    perms = []
    for i, nf in zip(lanes, np.add.reduceat(fired, starts).tolist()):
        if nf:
            perms.append(rngs[i].permutation(nf))
    if not perms:
        return _no_exposures(k)
    f_sus = gsus[fired]
    f_inf = inf_ids[fired]
    if len(perms) == 1:
        perm = perms[0]
    else:
        sizes = [q.shape[0] for q in perms]
        perm = np.concatenate(perms)
        perm += np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    # Unique over the stack-wide ids is the per-lane uniques concatenated
    # in lane order, first occurrences included.
    key, first = np.unique(f_sus[perm], return_index=True)
    bounds = key.searchsorted(offsets)
    sizes = bounds[1:] - bounds[:-1]
    return (sizes, key - offsets[:-1].repeat(sizes),
            model.exposed_of[health[key]], f_inf[perm][first])


def lane_transmissions(model: DiseaseModel, taus, rngs, health, infectious,
                       workloads, node_sus, node_inf, supp_count, weights,
                       scan: CandidateScan):
    """One tick of transmission for K lanes: pick, enumerate, sample.

    The kernel is :func:`auto_backend` over the sum of the lanes'
    ``workloads`` (each lane's frontier degree sum) against the union's
    edge count.  The stacks are as in :meth:`CandidateScan.candidates`,
    the rest as in :func:`sample_transmissions`; ``scan`` holds the
    lanes' networks and offsets.

    Returns:
        ``(counts, sizes, pids, codes, infectors)``: per-lane candidate
        counts, then :func:`sample_transmissions`' exposures.
    """
    kernel = auto_backend(workloads.sum(), scan.n_edges)
    cand = scan.candidates(kernel, model, health, infectious, workloads,
                           supp_count, weights)
    return (cand[4], *sample_transmissions(model, taus, rngs, health,
                                           node_sus, node_inf, scan.offsets,
                                           cand))

