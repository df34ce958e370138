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

Both drivers call :func:`lane_transmissions` once per tick with ``(K, N)`` /
``(K, E)`` lane stacks — the
:class:`~repro.epihiper.batch.BatchedSimulation` with its K lanes, the solo
:class:`~repro.epihiper.engine.Simulation` with its own arrays viewed as
one lane — and :func:`transmission_step` is the same call over one lane's
loose arrays.  Both engines hand in state they maintain where ``health``
changes (each lane's infectious mask and its frontier degree sum) and the
raw edge state (suppression counts and the base activity flags), so a
frontier tick reads flags only on the persons and edges it gathers.  A
tick has three stages, each written once:

Candidate enumeration (:class:`CandidateScan`)
    ``dense`` lanes share one scan over the doubled-edge layout (both
    contact directions of every edge, for all dense lanes at once); only
    a tick with a dense lane builds the ``(K, N)`` susceptible masks and
    the ``(K, E)`` activity mask.  ``frontier`` lanes each gather only the
    edges incident to their infectious set through the
    :class:`~repro.epihiper.interventions.IncidentEdges` CSR and read
    state and activity on those rows alone — O(frontier degree) instead
    of O(|E|), the early-epidemic common case.  A candidate contact
    requires an infectious endpoint, so both kernels enumerate *exactly*
    the same contacts, in the same order (forward then backward
    direction, ascending edge).

The ``auto`` rule (:func:`auto_backend`)
    Frontier while the gathered incident-slot count (the infectious sets'
    degree sum, summed over the lanes resolved together) stays below
    ``FRONTIER_DENSE_CROSSOVER`` of the edge count, dense afterwards; all
    ``auto`` lanes of a batch share one decision, so the dense lanes stay
    one stacked scan.  The engines keep the degree sums current, so the
    decision is O(1); :func:`resolve_auto` is the same rule over
    infectious masks.

Sampling (:func:`sample_transmissions`)
    Eq. (1) over the lane-concatenated candidates, then per lane one
    uniform per candidate and one permutation over the firing contacts
    (each exposed person's attributed contact is uniform among them).

The kernel choice never changes the RNG consumption, so every backend —
and every batch width — yields bit-identical events for the same stream.
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

#: ``auto`` crossover: use the frontier kernel while the summed degree of
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
    """Which kernel enumerates candidate contacts each tick."""

    DENSE = "dense"
    FRONTIER = "frontier"
    AUTO = "auto"

    @classmethod
    def coerce(cls, value: "TransmissionBackend | str") -> "TransmissionBackend":
        """Accept an enum member or its string value (cell-parameter form)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown transmission backend {value!r}; expected one of "
                f"{names}") from None


@dataclass(frozen=True, slots=True)
class TransmissionEvents:
    """Newly exposed persons of one tick, with attribution."""

    pids: np.ndarray  #: persons leaving a susceptible state
    exposed_codes: np.ndarray  #: state each person enters
    infectors: np.ndarray  #: the contact that caused each transition
    n_candidates: int  #: directed susceptible-infectious contacts evaluated


def frontier_workload(inf_state: np.ndarray,
                      incident: "IncidentEdges") -> float:
    """Exact frontier gather workload (degree sum) of one infectious mask,
    or summed over a ``(K, N)`` stack of lane masks.

    One contraction against the cached degree column, a few microseconds
    regardless of prevalence.  ``einsum`` rather than a BLAS dot: a
    multithreaded BLAS call stalls for milliseconds on a busy host, which
    used to put ``auto`` 2x behind ``dense`` at high prevalence.  Degree
    sums are integers far below 2**53, so the float result is exact.
    """
    degrees = incident.degrees
    return float(np.einsum("kn,n->", inf_state.reshape(-1, degrees.shape[0]),
                           degrees))


def auto_backend(workload: float, n_edges: int) -> TransmissionBackend:
    """The ``auto`` rule over a gather workload: frontier while the summed
    frontier degree of the lanes resolved together stays within
    ``FRONTIER_DENSE_CROSSOVER * |E|``, dense afterwards."""
    if workload <= FRONTIER_DENSE_CROSSOVER * n_edges:
        return TransmissionBackend.FRONTIER
    return TransmissionBackend.DENSE


def resolve_auto(inf_auto: np.ndarray, incident: "IncidentEdges",
                 n_edges: int) -> TransmissionBackend:
    """The ``auto`` rule for lanes known only by their infectious masks.

    ``inf_auto`` holds the infectious masks of the ``auto`` lanes resolved
    together (``(1, N)`` for one lane).  The engines maintain the degree
    sums and call :func:`auto_backend` directly; this is the loose-array
    face (:func:`transmission_step`).  The infectious count times the
    largest degree bounds the workload from above, so one popcount
    settles the early-epidemic case without touching the degree column.
    """
    threshold = FRONTIER_DENSE_CROSSOVER * n_edges
    if np.count_nonzero(inf_auto) * incident.max_degree <= threshold:
        return TransmissionBackend.FRONTIER
    return auto_backend(frontier_workload(inf_auto, incident), n_edges)


class CandidateScan:
    """Candidate contacts of a lane stack over one network.

    Holds the network's edge columns and, from the first dense tick on,
    the doubled-edge lookups of the stacked dense scan (48 B per edge —
    built per engine and dropped with it, never cached per network) plus
    its boolean scratch.
    """

    def __init__(self, source: np.ndarray, target: np.ndarray,
                 duration: np.ndarray) -> None:
        self.source = source
        self.target = target
        self.duration = duration
        self._tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._scratch: np.ndarray | None = None
        self._active: np.ndarray | None = None

    def candidates(self, backends, model, health, infectious, supp_count,
                   base_active, weight, incident):
        """Every lane's candidate contacts as one lane-concatenated batch.

        ``health`` / ``infectious`` are the ``(K, N)`` state codes and
        maintained infectious masks, ``supp_count`` / ``weight`` the
        ``(K, E)`` per-lane suppression counts and edge weights,
        ``base_active`` the shared ``(E,)`` base activity (an edge is
        active when its base flag is set and nothing suppresses it), and
        ``backends`` the resolved kernel per lane.

        Returns:
            ``(sus_ids, inf_ids, dur, w, counts)``: lane-local person ids
            and per-contact columns concatenated lane by lane, and the
            ``(K,)`` per-lane candidate counts.
        """
        k = health.shape[0]
        frontier = [i for i, b in enumerate(backends)
                    if b is TransmissionBackend.FRONTIER]
        if frontier and incident is None:
            raise ValueError(
                "frontier backend requires an IncidentEdges index")
        if not frontier:
            return self._dense(model, health, infectious, supp_count,
                               base_active, weight)
        parts: list = [None] * k
        dense = [i for i, b in enumerate(backends)
                 if b is not TransmissionBackend.FRONTIER]
        if dense:
            sel = np.asarray(dense)
            *cols, d_counts = self._dense(
                model, health[sel], infectious[sel], supp_count[sel],
                base_active, weight[sel])
            offs = np.concatenate(([0], np.cumsum(d_counts))).tolist()
            for j, i in enumerate(dense):
                parts[i] = [c[offs[j]:offs[j + 1]] for c in cols]
        for i in frontier:
            parts[i] = self._frontier(model, health[i], infectious[i],
                                      supp_count[i], base_active, weight[i],
                                      incident)
        counts = np.array([p[0].shape[0] for p in parts], dtype=np.int64)
        if k == 1:
            return (*parts[0], counts)
        return (*(np.concatenate([p[c] for p in parts]) for c in range(4)),
                counts)

    def _dense(self, model, health, inf, supp_count, base_active, weight):
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
            self._tables = (
                np.concatenate([self.source, self.target]),  # infectious
                np.concatenate([self.target, self.source]),  # susceptible
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
        w = weight.reshape(-1)[lane * n_edges + edge]
        return sus_of[col], inf_of[col], dur_of[col], w, counts

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
            return (self.target[:0], self.source[:0], self.duration[:0],
                    weight[:0])
        src = self.source[rows]
        tgt = self.target[rows]
        act = (supp_count[rows] == 0) & base_active[rows]
        sus = model.is_susceptible
        fwd = act & inf[src] & sus[health[tgt]]  # src infects tgt
        bwd = act & inf[tgt] & sus[health[src]]  # tgt infects src
        erows = np.concatenate([rows[fwd], rows[bwd]])
        return (np.concatenate([tgt[fwd], src[bwd]]),
                np.concatenate([src[fwd], tgt[bwd]]),
                self.duration[erows], weight[erows])


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


def lane_transmissions(backends, model: DiseaseModel, taus, rngs, health,
                       infectious, workloads, node_sus, node_inf, supp_count,
                       base_active, weight, scan: CandidateScan, incident):
    """One tick of transmission for K lanes: resolve, enumerate, sample.

    ``backends`` is each lane's configured kernel; ``auto`` lanes resolve
    together through :func:`auto_backend` over the sum of their
    ``workloads`` (each lane's frontier degree sum; without an
    ``incident`` CSR they scan dense).  The state and edge stacks are as
    in :meth:`CandidateScan.candidates`, the rest as in
    :func:`sample_transmissions`.

    Returns:
        ``(counts, sizes, pids, codes, infectors)``: per-lane candidate
        counts, then :func:`sample_transmissions`' exposures.
    """
    auto = [i for i, b in enumerate(backends)
            if b is TransmissionBackend.AUTO]
    if auto:
        choice = TransmissionBackend.DENSE
        if incident is not None:
            load = (workloads.sum() if len(auto) == len(backends)
                    else workloads[auto].sum())
            choice = auto_backend(load, scan.source.shape[0])
        backends = [choice if b is TransmissionBackend.AUTO else b
                    for b in backends]
    cand = scan.candidates(backends, model, health, infectious, supp_count,
                           base_active, weight, incident)
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
    backend: TransmissionBackend | str = TransmissionBackend.DENSE,
    incident: "IncidentEdges | None" = None,
) -> TransmissionEvents:
    """Evaluate the active contacts of one tick and sample transmissions.

    :func:`lane_transmissions` for one lane's loose arrays: the
    infectious mask is derived from ``health`` and ``auto`` resolves
    through :func:`resolve_auto` (an engine maintains both instead, and
    keeps its dense scan's lookups across ticks).

    Args:
        model: the disease model supplying state-level sigma / iota / omega.
        health: per-person state codes.
        node_susceptibility / node_infectivity: per-person scaling traits
            (the rw ``susceptibility`` / ``infectivity`` values of Table V).
        edge_*: the contact-network columns; only ``active`` edges transmit.
        rng: the simulation's random stream.
        backend: candidate-enumeration kernel; all choices consume the RNG
            stream identically and return bit-identical events.
        incident: the person -> incident-edge CSR; required by ``frontier``
            and used by ``auto`` (``auto`` without it degrades to dense).

    Returns:
        One event per newly exposed person.  A person reachable through
        several firing contacts is exposed once, attributed to a uniformly
        random firing contact.
    """
    backend = TransmissionBackend.coerce(backend)
    infectious = np.take(model.is_infectious, health)
    if backend is TransmissionBackend.AUTO:
        backend = (TransmissionBackend.DENSE if incident is None
                   else resolve_auto(infectious[None], incident,
                                     edge_source.shape[0]))
    counts, _sizes, pids, codes, infectors = lane_transmissions(
        [backend], model, [model.transmissibility], [rng], health[None],
        infectious[None], None, node_susceptibility[None],
        node_infectivity[None], np.zeros((1, edge_active.shape[0]), np.int8),
        edge_active, edge_weight[None],
        CandidateScan(edge_source, edge_target, edge_duration_min), incident)
    return TransmissionEvents(pids=pids, exposed_codes=codes,
                              infectors=infectors,
                              n_candidates=int(counts[0]))
