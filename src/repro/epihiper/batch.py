"""Batched multi-replicate execution: K replicates per vectorized tick.

Calibration sweeps, ensemble designs, and the scenario service all run many
*replicates* of the same region — identical population, network, and
horizon, differing only in RNG seed and cell parameters.  At calibration
scales the per-tick numpy kernels are dispatch-bound: every whole-array
operation pays a fixed interpreter + ufunc-setup cost that dwarfs the
arithmetic.  :class:`BatchedSimulation` amortises that cost by advancing K
replicates through each tick phase together, operating on ``(K, N)`` /
``(K, E)`` stacks instead of K separate ``(N,)`` / ``(E,)`` arrays.

The batching is *lane-view* based: each replicate remains a full
:class:`~repro.epihiper.engine.Simulation` ("lane") whose state arrays are
rebound to row views of the shared stacks.  Everything that consumes
randomness — interventions, transmission Bernoulli draws, progression
scheduling, seeding — keeps running per lane against the lane's own
``Generator``, in the exact order a solo run executes it; only the
RNG-free heavy work (candidate enumeration, Eq. 1 propensities, dwell
decrements, state writes, the census bincount) runs over the stacks.
Because lanes draw from independent generators, interleaving their phases
is free, and each lane's stream consumption is untouched — a replicate
batched alongside others emits exactly the bytes it emits alone.
Equivalence is exact, not statistical.

Kernel choice inside a batch is a pure speed decision: the dense and
frontier kernels enumerate identical candidates in identical order with
identical RNG consumption, so ``auto`` lanes may resolve differently
batched than solo without changing a single output byte.  The batch
resolves all its ``auto`` lanes *together* (one decision over the summed
frontier workload) so they land on the same kernel and the candidate scan
stays one stacked operation.

What may share a batch is decided once, at construction
(:func:`_require_compatible`): lanes must share assets, tick, state-space
size, progression structure and dwell values, the sigma / iota / omega
tables and susceptible -> exposed map, and base edge activity.  Anything
else raises :class:`BatchIncompatible` and the caller runs the group as
singles; the tick loop itself carries no per-lane fallback.

Interventions and NPIs need no porting: they reach state only through the
lane's public surface (``health``, ``enter_state``, ``suppressor``,
``edge_weight``, ``node_susceptibility``, ``rng``), all of which resolve to
the lane's row views.
"""

from __future__ import annotations

import numpy as np

from ..obs.registry import GAUGE, TIMER, MetricsRegistry
from .engine import (
    EDGE_OP_BYTES,
    ENGINE_TIMERS,
    SCHEDULED_CHANGE_BYTES,
    TRANSITION_BYTES,
    Simulation,
    SimulationResult,
)
from .progression import batched_progression_step, schedule_entries
from .states import (
    DiscreteDwell,
    FixedDwell,
    NormalDwell,
    inverse_normal_cdf,
    inverse_normal_cdf_scalar,
)
from .transmission import (
    FRONTIER_DENSE_CROSSOVER,
    MINUTES_PER_DAY,
    TransmissionBackend,
    _frontier_candidates,
    batched_dense_candidates,
    dense_candidate_tables,
)

#: Per-phase timers (``batch.<name>``) the batched driver publishes — the
#: stacked-kernel counterpart of the engine's Figure 7 breakdown.
BATCH_TIMERS: tuple[str, ...] = (
    "interventions_s",
    "transmission_s",
    "progression_s",
    "census_s",
)

#: How much cheaper one stacked dense scan is, per auto lane, than a solo
#: dense scan — the dense kernel's cost is one dispatch for the whole
#: batch plus per-element arithmetic, while the frontier kernel pays a
#: fixed per-lane gather cost K times.  ``auto`` inside a batch therefore
#: abandons frontier at a per-lane workload of roughly ``1 / (A * K)`` of
#: the solo crossover, where K is the number of auto lanes (measured on
#: scaled state networks; at K=16 frontier only wins in the first few
#: seeded ticks).
BATCH_DENSE_AMORTIZATION: float = 4.0


class BatchIncompatible(ValueError):
    """The given lanes cannot share one batched tick loop.

    Raised on construction, before any lane is touched, when
    :func:`_require_compatible` finds a mismatch; the message names it.
    There is no in-kernel detour: the worker entry
    (``core/parallel._execute_group``) answers by running the group as
    one group per spec — the solo reference path.
    """


def _dwell_equal(a, b) -> bool:
    """Value equality of two dwell-time distributions."""
    if type(a) is not type(b):
        return False
    if isinstance(a, FixedDwell):
        return a.days == b.days
    if isinstance(a, NormalDwell):
        return a.mu == b.mu and a.sd == b.sd
    if isinstance(a, DiscreteDwell):
        return a.days == b.days and a.probs == b.probs
    return a is b


def _dwell_key(d):
    """Hashable value identity of a dwell distribution (for dedup)."""
    if isinstance(d, FixedDwell):
        return ("f", d.days)
    if isinstance(d, NormalDwell):
        return ("n", d.mu, d.sd)
    if isinstance(d, DiscreteDwell):
        return ("d", d.days, d.probs)
    return id(d)


class _SchedTables:
    """Padded global tables for the cross-lane batched scheduler.

    Every per-state choice/dwell lookup is flattened into arrays indexed
    by ``(code, lane, edge, age)`` so one gather serves entries of every
    state at once:

    - ``cum_pad``: ``(n_states, K, n_out_max, n_age)`` cumulative choice
      columns, padded with ``+inf`` (never selected).  Single-edge states
      are all-``inf`` — their choice is forced to edge 0, exactly like the
      solo scheduler's short-circuit.
    - ``top``: ``(n_states, K, n_age)`` — each state's last cumulative
      value (the solo scheduler's ``cum[-1]`` normaliser).
    - ``dst_pad`` / ``dist_id``: ``(n_states, n_out_max)`` destination
      codes and indices into ``dists``, the value-deduplicated dwell
      distributions (lanes must agree on dwell values; dedup means e.g.
      both EXPOSED out-edges' Normal(5, 1) evaluate as one batch).
    """

    __slots__ = ("has_out", "cum_pad", "top", "dst_pad", "dist_id",
                 "dists", "n_out_max", "fam", "fixed_days", "mu", "sd",
                 "other_dists")

    def __init__(self, lanes) -> None:
        first = lanes[0].model
        n_states = first.n_states
        k = len(lanes)
        outs = {c: first.out_edges[c] for c in first.out_edges}
        n_out_max = max(
            (len(o[2]) for o in outs.values()), default=1)
        n_age = next(
            (first.out_cum[c].shape[1] for c in outs), 1)
        self.has_out = np.zeros(n_states, dtype=bool)
        self.cum_pad = np.full(
            (n_states, k, n_out_max, n_age), np.inf, dtype=np.float64)
        self.top = np.zeros((n_states, k, n_age), dtype=np.float64)
        self.dst_pad = np.full((n_states, n_out_max), -1, dtype=np.int8)
        self.dist_id = np.zeros((n_states, n_out_max), dtype=np.int64)
        self.dists: list = []
        self.n_out_max = n_out_max
        keymap: dict = {}
        for code, (dsts, _probs, dwells) in outs.items():
            n_out = len(dwells)
            self.has_out[code] = True
            for i, sim in enumerate(lanes):
                cum = sim.model.out_cum[code]
                self.top[code, i] = cum[-1]
                if n_out > 1:
                    self.cum_pad[code, i, :n_out] = cum
            self.dst_pad[code, :n_out] = dsts
            self.dst_pad[code, n_out:] = dsts[-1]
            for e, dw in enumerate(dwells):
                key = _dwell_key(dw)
                if key not in keymap:
                    keymap[key] = len(self.dists)
                    self.dists.append(dw)
                self.dist_id[code, e] = keymap[key]
            self.dist_id[code, n_out:] = self.dist_id[code, n_out - 1]
        # Family split so the whole batch's dwell draws evaluate in a
        # constant number of vectorised passes: fixed is a table lookup,
        # all normals share one CDF inversion (parametrised by gathered
        # mu/sd), anything else (discrete, custom) loops per distinct
        # distribution — family code 2.
        fams, days, mus, sds = [], [], [], []
        self.other_dists: list = []
        for d_id, dw in enumerate(self.dists):
            if isinstance(dw, FixedDwell):
                fams.append(0), days.append(dw.days)
                mus.append(0.0), sds.append(0.0)
            elif isinstance(dw, NormalDwell):
                fams.append(1), days.append(0)
                mus.append(dw.mu), sds.append(dw.sd)
            else:
                fams.append(2), days.append(0)
                mus.append(0.0), sds.append(0.0)
                self.other_dists.append((d_id, dw))
        self.fam = np.asarray(fams, dtype=np.int8)
        self.fixed_days = np.asarray(days, dtype=np.int32)
        self.mu = np.asarray(mus, dtype=np.float64)
        self.sd = np.asarray(sds, dtype=np.float64)


def _require_compatible(first: Simulation, sim: Simulation) -> None:
    """Raise :class:`BatchIncompatible` unless ``sim`` can share ``first``'s
    tick loop; the message names the mismatch.

    The one place "what may share a batch" is decided.  Lanes may differ
    in seed, transmissibility, transition *probabilities* (calibration
    moves TAU and the symptomatic fraction), interventions and backend;
    everything the stacked kernels read once for the whole batch must
    agree: the assets, the tick, the state-space size, the PTTS graph
    structure and dwell-distribution values (the padded scheduling tables
    and canonical dwell objects serve every lane), the sigma / iota /
    omega tables and susceptible -> exposed map (one Eq. 1 evaluation and
    one entry-code gather), and the base edge activity (one row serves
    the stacked active mask).
    """
    if sim.pop is not first.pop or sim.net is not first.net:
        raise BatchIncompatible(
            "lanes must share population and network assets")
    if sim.tick != first.tick:
        raise BatchIncompatible("lanes must sit at the same tick")
    a, b = first.model, sim.model
    if b.n_states != a.n_states:
        raise BatchIncompatible("lane models must share a state-space size")
    if b is not a:
        for code in range(a.n_states):
            out0, out = a.out_edges.get(code), b.out_edges.get(code)
            if out0 is None and out is None:
                continue
            if (out0 is None or out is None
                    or not np.array_equal(out0[0], out[0])
                    or b.out_cum[code].shape != a.out_cum[code].shape):
                raise BatchIncompatible(
                    "lane models must share a progression structure "
                    f"(state {code})")
            # Equal destinations: the dwell lists are equally long.
            if any(not _dwell_equal(x, y) for x, y in zip(out0[2], out[2])):
                raise BatchIncompatible(
                    f"lane models must share dwell values (state {code})")
        if not (np.array_equal(a.susceptibility, b.susceptibility)
                and np.array_equal(a.infectivity, b.infectivity)
                and np.array_equal(a.omega, b.omega)):
            raise BatchIncompatible(
                "lane models must share sigma / iota / omega tables")
        if not np.array_equal(a.exposed_of, b.exposed_of):
            raise BatchIncompatible(
                "lane models must share the susceptible -> exposed map")
    if not np.array_equal(sim.base_active, first.base_active):
        raise BatchIncompatible("lanes must share base edge activity")


class BatchedSimulation:
    """Advance K replicate :class:`Simulation` lanes through shared ticks.

    Lanes must share their population and network objects (same region
    assets), sit at the same tick, and have models that agree on
    state-space size, progression structure and dwell values, the
    sigma / iota / omega tables and susceptible -> exposed map, and base
    edge activity (:func:`_require_compatible`; any mismatch raises
    :class:`BatchIncompatible` and leaves the lanes as they were handed
    in); seeds, cell parameters (model transmissibility, symptomatic
    fraction), interventions, and backends may differ per lane.

    After construction each lane's ``health``, ``sched.dwell``,
    ``sched.next_state``, ``suppressor.count``, ``edge_weight``,
    ``node_susceptibility``, and ``node_infectivity`` arrays are row views
    into stacks owned by this driver; the lanes remain fully functional
    Simulations and assemble their own per-replicate results.
    """

    def __init__(
        self,
        lanes: list[Simulation],
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not lanes:
            raise BatchIncompatible("batched simulation needs at least one lane")
        first = lanes[0]
        for sim in lanes[1:]:
            _require_compatible(first, sim)
        self.lanes = list(lanes)
        k = len(self.lanes)
        n = first.pop.size
        e = first.net.n_edges
        self._n_edges = e
        self._n_states = first.model.n_states

        # Stack the per-lane state and rebind the lanes to row views; all
        # existing state (mid-run batching included) is preserved.  NPIs
        # mutate these arrays only in place, so the views stay live.
        self._health = np.empty((k, n), dtype=np.int8)
        self._dwell = np.empty((k, n), dtype=np.int32)
        self._next_state = np.empty((k, n), dtype=np.int8)
        self._supp_count = np.empty((k, e), dtype=np.int16)
        self._edge_weight = np.empty((k, e), dtype=np.float64)
        self._node_sus = np.empty((k, n), dtype=np.float64)
        self._node_inf = np.empty((k, n), dtype=np.float64)
        for i, sim in enumerate(self.lanes):
            self._health[i] = sim.health
            self._dwell[i] = sim.sched.dwell
            self._next_state[i] = sim.sched.next_state
            self._supp_count[i] = sim.suppressor.count
            self._edge_weight[i] = sim.edge_weight
            self._node_sus[i] = sim.node_susceptibility
            self._node_inf[i] = sim.node_infectivity
            sim.health = self._health[i]
            sim.sched.dwell = self._dwell[i]
            sim.sched.next_state = self._next_state[i]
            sim.suppressor.count = self._supp_count[i]
            sim.edge_weight = self._edge_weight[i]
            sim.node_susceptibility = self._node_sus[i]
            sim.node_infectivity = self._node_inf[i]

        # Flat aliases for lane-offset indexing (row-major views).
        self._health_flat = self._health.reshape(-1)
        self._dwell_flat = self._dwell.reshape(-1)
        self._next_flat = self._next_state.reshape(-1)
        self._node_sus_flat = self._node_sus.reshape(-1)
        self._node_inf_flat = self._node_inf.reshape(-1)
        self._lane_arange = np.arange(k, dtype=np.int64)
        self._lane_offsets = self._lane_arange * n
        self._n_pop = n

        # Per-code scheduling tables for the cross-lane scheduler (lanes
        # agree on structure and dwell values; probabilities are per lane).
        self._sched_tables = _SchedTables(self.lanes)

        # One incident CSR serves every lane (it is read-only and the
        # lanes share the network); build it eagerly so frontier/auto
        # resolution never pays the lazy construction mid-run.
        incident = first.incident
        for sim in self.lanes:
            sim._incident = incident
        self._incident = incident
        self._degrees = incident.degrees
        self._duration_f64 = first._duration_f64

        # Per-tick scratch stacks (allocated once, reused every tick), plus
        # the static doubled-edge lookups the stacked dense scan indexes.
        self._cand_tables = dense_candidate_tables(
            first.net.source, first.net.target, self._duration_f64)
        self._cand_scratch = np.empty((2, k, 2 * e), dtype=bool)
        self._active = np.empty((k, e), dtype=bool)
        self._sus = np.empty((k, n), dtype=bool)
        self._inf = np.empty((k, n), dtype=bool)
        self._workload_scratch = np.empty((k, n), dtype=np.float64)
        self._census_scratch = np.empty((k, n), dtype=np.int32)
        self._census_offsets = (
            np.arange(k, dtype=np.int32) * self._n_states)[:, None]

        # One row serves the whole stacked active-mask evaluation: the
        # lanes' base edge-activity copies are equal (checked above) and
        # nothing mutates them — NPIs act through the suppressor.
        self._base_active = first.base_active

        # Census bookkeeping is deferred: per-tick snapshots of the cheap
        # python counters accumulate here and expand into each lane's
        # counts / memory history once, at the end of the run (nothing
        # reads those histories mid-run; results are assembled after).
        self._census_rows: list[np.ndarray] = []
        self._pend_snap: list[list[int]] = []
        self._trans_snap: list[list[int]] = []
        self._ops_snap: list[list[int]] = []

        # Per-lane work counters kept as plain python ints during the run
        # and flushed into each lane's ``engine.*`` registry at the end —
        # registry increments are dict lookups and cost more than the
        # counting itself at K-lane per-tick frequency.
        self._ct_contacts = [0] * k
        self._ct_transitions = [0] * k
        self._ct_transmissions = [0] * k
        self._ct_iv_fired = [0] * k
        self._ct_iv_ops = [0] * k
        #: transitions already in each lane's registry when batching began
        #: (seeding, pre-batch solo ticks) — the deferred memory estimate
        #: adds the live python counter on top of this base.
        self._trans_base = [
            sim.metrics.value("engine.transitions") for sim in self.lanes]

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.declare("batch.size", GAUGE)
        self.metrics.gauge("batch.size", k)
        for name in BATCH_TIMERS:
            self.metrics.declare(f"batch.{name}", TIMER)
        #: batch phase seconds already credited back to the lanes'
        #: ``engine.*_s`` timers (supports repeated :meth:`run` calls on
        #: one batch without double counting).
        self._timer_flushed = {name: 0.0 for name in ENGINE_TIMERS}

    def _resolve_backends(self) -> list[TransmissionBackend]:
        """Per-lane kernel choice for this tick (``auto`` resolved).

        All ``auto`` lanes resolve *together*: frontier while the summed
        frontier workload of the auto lanes stays below the solo crossover
        threshold, dense afterwards.  Either kernel yields bit-identical
        events, so grouping the decision is free correctness-wise and
        keeps the candidate scan a single stacked dense pass once any
        meaningful fraction of the batch has left the early-epidemic
        regime (K per-lane frontier gathers pay K dispatch overheads; the
        stacked dense scan pays one).
        """
        resolved = [sim.backend for sim in self.lanes]
        auto = [i for i, b in enumerate(resolved)
                if b is TransmissionBackend.AUTO]
        if auto:
            np.copyto(self._workload_scratch, self._inf, casting="unsafe")
            workloads = self._workload_scratch @ self._degrees
            mean = float(workloads[auto].sum()) / len(auto)
            threshold = (FRONTIER_DENSE_CROSSOVER * self._n_edges
                         / (BATCH_DENSE_AMORTIZATION * len(auto)))
            choice = (TransmissionBackend.FRONTIER if mean <= threshold
                      else TransmissionBackend.DENSE)
            for i in auto:
                resolved[i] = choice
        return resolved

    def _candidate_segments(self, resolved):
        """Per-lane candidate contacts as one lane-concatenated flat batch.

        Returns ``(sus, inf, dur, w, counts)`` with lane segments in lane
        order; ``counts[i]`` is lane i's candidate count (its solo
        ``n_candidates``).  Dense lanes are enumerated by one stacked
        scan; frontier lanes gather per lane (their work is tiny by
        construction when frontier is chosen).
        """
        net = self.lanes[0].net
        k = len(self.lanes)
        dense = [i for i, b in enumerate(resolved)
                 if b is not TransmissionBackend.FRONTIER]
        if len(dense) == k:
            return batched_dense_candidates(
                self._sus, self._inf, net.source, net.target,
                self._active, self._edge_weight, self._duration_f64,
                tables=self._cand_tables, scratch=self._cand_scratch)

        seg: list[tuple | None] = [None] * k
        counts = np.zeros(k, dtype=np.int64)
        if dense:
            sel = np.asarray(dense)
            d_sus, d_inf, d_dur, d_w, d_counts = batched_dense_candidates(
                self._sus[sel], self._inf[sel], net.source, net.target,
                self._active[sel], self._edge_weight[sel],
                self._duration_f64, tables=self._cand_tables,
                scratch=self._cand_scratch[:, :len(dense)])
            offs = np.concatenate(([0], np.cumsum(d_counts)))
            for j, i in enumerate(dense):
                lo, hi = offs[j], offs[j + 1]
                seg[i] = (d_sus[lo:hi], d_inf[lo:hi], d_dur[lo:hi],
                          d_w[lo:hi])
                counts[i] = d_counts[j]
        for i, backend in enumerate(resolved):
            if backend is not TransmissionBackend.FRONTIER:
                continue
            sim = self.lanes[i]
            cand = _frontier_candidates(
                sim.model, sim.health, self._inf[i],
                np.flatnonzero(self._inf[i]), self._incident,
                net.source, net.target, self._active[i],
                sim.edge_weight, self._duration_f64)
            if cand is not None:
                seg[i] = cand
                counts[i] = cand[0].shape[0]
        parts = [s for s in seg if s is not None]
        if not parts:
            empty = np.empty(0, np.int64)
            return (empty, empty, np.empty(0, np.float64),
                    np.empty(0, np.float64), counts)
        return (
            np.concatenate([s[0] for s in parts]),
            np.concatenate([s[1] for s in parts]),
            np.concatenate([s[2] for s in parts]),
            np.concatenate([s[3] for s in parts]),
            counts,
        )

    def _batched_propensities(self, sus_cat, inf_cat, dur_cat, w_cat, counts):
        """Eq. 1 firing probabilities for the whole flat candidate batch.

        Reads the model tables every lane shares off lane 0 (only the
        scalar transmissibility is per lane).  The arithmetic chain matches
        :func:`~repro.epihiper.transmission._sample_transmissions` term
        for term (float multiplication is order-sensitive), so each lane's
        slice of ``p`` is bit-identical to its solo propensities.
        """
        model = self.lanes[0].model
        rep = np.repeat(self._lane_offsets, counts)
        gsus = sus_cat + rep
        ginf = inf_cat + rep
        hs = self._health_flat[gsus]
        hi = self._health_flat[ginf]
        sigma = model.susceptibility[hs] * self._node_sus_flat[gsus]
        iota = model.infectivity[hi] * self._node_inf_flat[ginf]
        omega = model.omega[hs, hi]
        rho = (dur_cat / MINUTES_PER_DAY) * w_cat * sigma * iota * omega
        rho *= np.repeat(
            np.array([sim.model.transmissibility for sim in self.lanes]),
            counts)
        return -np.expm1(-rho)

    def _apply_flat(self, sizes, pids_cat, codes_cat, inf_cat) -> None:
        """Batched ``enter_state`` from lane-major flat entry arrays.

        ``sizes[i]`` is lane i's entry count; ``pids_cat``/``codes_cat``
        are the per-lane entries concatenated in lane order (each lane's
        solo order).  ``inf_cat`` is the flat infector column or ``None``
        for progression entries.  One flat write updates every lane's
        health row; recording runs per lane (each lane owns its
        recorder), and next-hop scheduling goes through the cross-lane
        batched scheduler unless only a few lanes have entries.
        """
        total = pids_cat.shape[0]
        if total == 0:
            return
        sl = sizes.tolist()
        lane_rep = np.repeat(self._lane_arange, sizes)
        flat = pids_cat + lane_rep * self._n_pop
        self._health_flat[flat] = codes_cat
        ticks = np.full(total, self.lanes[0].tick, dtype=np.int32)
        if inf_cat is None:
            inf_cat = np.full(total, -1, dtype=np.int64)
        off = 0
        active = 0
        for i, n_k in enumerate(sl):
            if n_k == 0:
                continue
            active += 1
            sim = self.lanes[i]
            sim.recorder.record_chunks(
                ticks[off:off + n_k], pids_cat[off:off + n_k],
                codes_cat[off:off + n_k], inf_cat[off:off + n_k])
            self._ct_transitions[i] += n_k
            off += n_k
        if active < 4:
            # Few lanes fired: the per-lane scheduler's python is cheaper
            # than the batched machinery.
            off = 0
            for i, n_k in enumerate(sl):
                if n_k == 0:
                    continue
                sim = self.lanes[i]
                schedule_entries(
                    sim.model, sim.sched, pids_cat[off:off + n_k],
                    codes_cat[off:off + n_k], sim.pop.age_group, sim.rng)
                off += n_k
        else:
            self._schedule_batch(lane_rep, pids_cat, codes_cat)

    def _schedule_batch(self, lane_cat, pids_cat, codes_cat) -> None:
        """Cross-lane vectorised twin of per-lane ``schedule_entries``.

        Exploits the dwell families' one-uniform-per-draw contract: a
        (lane, code) group of ``n`` entries consumes exactly ``2n``
        uniforms (``n`` edge choices, then ``n`` dwell draws ordered by
        chosen edge), so each group's block is pre-drawn in a single
        generator call — per lane in ascending-code order, the solo
        stream layout — and every choice comparison and dwell-value
        transform then runs vectorised over all lanes at once.  Outputs
        are bit-identical to K solo ``schedule_entries`` calls.
        """
        k = len(self.lanes)
        t = self._sched_tables
        n_states = self._n_states
        m_all = pids_cat.shape[0]
        # (lane, code)-major stable sort: each lane's groups come out in
        # ascending-code order (the solo scheduler's visit order, which is
        # also the lane's stream-consumption order) with original person
        # order preserved inside each group — the solo grouping.
        key = lane_cat * n_states + codes_cat
        if bool((key[1:] >= key[:-1]).all()):
            # Already (lane, code)-grouped — the transmission path always
            # is (one entry code per lane, lanes ascending).
            s_key, s_lane, s_pid, s_code = key, lane_cat, pids_cat, codes_cat
        else:
            order = np.argsort(key, kind="stable")
            s_key = key[order]
            s_lane = lane_cat[order]
            s_pid = pids_cat[order]
            s_code = codes_cat[order]
        cuts = np.flatnonzero(s_key[1:] != s_key[:-1]) + 1
        bounds = np.concatenate(([0], cuts, [m_all]))
        g_start = bounds[:-1]
        g_size = np.diff(bounds)
        g_lane = s_lane[g_start]
        g_out = t.has_out[s_code[g_start]]

        # Draw phase: each non-terminal group owns a contiguous 2n slice
        # of the buffer (n choice uniforms, then n dwell uniforms).
        # Groups are lane-major, so one generator call per lane fills all
        # its slices — a single ``random(out=...)`` over consecutive
        # blocks consumes the stream exactly like the solo scheduler's
        # sequence of smaller per-group draws.
        draw_sizes = np.where(g_out, 2 * g_size, 0)
        g_ustart = np.concatenate(([0], np.cumsum(draw_sizes)))
        total_draw = int(g_ustart[-1])
        g_ustart = g_ustart[:-1]
        ubuf = np.empty(total_draw, dtype=np.float64)
        lane_first = np.flatnonzero(
            np.concatenate(([True], g_lane[1:] != g_lane[:-1])))
        ext = np.append(g_ustart[lane_first], total_draw).tolist()
        for j, lane in enumerate(g_lane[lane_first].tolist()):
            lo, hi = ext[j], ext[j + 1]
            if hi > lo:
                self.lanes[lane].rng.random(out=ubuf[lo:hi])

        # Transform phase: one vectorised pass over every lane and code
        # at once, via the padded (code, lane, edge, age) tables.
        flat_idx = s_lane * self._n_pop + s_pid
        was = self._dwell_flat[flat_idx] > 0
        pend_minus = (np.bincount(s_lane[was], minlength=k)
                      if was.any() else None)
        p_gid = np.repeat(np.arange(g_start.shape[0]), g_size)
        p_out = g_out[p_gid]
        all_out = bool(p_out.all())
        if not all_out:
            # Terminal entries: clear any schedule.
            term = ~p_out
            self._dwell_flat[flat_idx[term]] = 0
            self._next_flat[flat_idx[term]] = -1
            sel = np.flatnonzero(p_out)
            if sel.size:
                s_lane, s_pid, s_code = s_lane[sel], s_pid[sel], s_code[sel]
                flat_idx, p_gid = flat_idx[sel], p_gid[sel]
        if all_out or sel.size:
            # Local position of each person inside its group: its global
            # sorted index minus the group's start (``sel`` IS the global
            # sorted index once terminal entries were filtered out).
            if all_out:
                within = np.arange(m_all, dtype=np.int64) - g_start[p_gid]
            else:
                within = sel - g_start[p_gid]
            ustarts = g_ustart[p_gid]
            u = ubuf[ustarts + within]
            ages = self.lanes[0].pop.age_group[s_pid]
            u2 = u * t.top[s_code, s_lane, ages]
            # Padded columns are +inf (single-edge states entirely so),
            # so the count-of-crossed-thresholds is exactly the solo
            # scheduler's choice for every state at once.
            cum_cols = t.cum_pad[s_code, s_lane, :, ages]
            choice = (u2[:, None] >= cum_cols).sum(axis=1)
            # Solo draws dwells per chosen edge in ascending-edge order
            # inside each group; a stable sort by (group, choice) ranks
            # persons in exactly that consumption order.  Groups occupy
            # the same contiguous ranges sorted as unsorted (group is the
            # major key), so the stream indices below serve sorted
            # positions too.
            ord2 = np.argsort(p_gid * t.n_out_max + choice, kind="stable")
            dwell_u = np.empty(choice.shape[0], dtype=np.float64)
            dwell_u[ord2] = ubuf[ustarts + g_size[p_gid] + within]
            did = t.dist_id[s_code, choice]
            fam = t.fam[did]
            vals = np.empty(choice.shape[0], dtype=np.int32)
            mk = fam == 0
            if mk.any():
                vals[mk] = t.fixed_days[did[mk]]
            mk = fam == 1
            n_norm = int(mk.sum())
            if n_norm:
                # One CDF inversion for every normal draw in the batch,
                # parametrised by gathered mu/sd — elementwise identical
                # to each dist's own values_from_uniforms (small subsets
                # take the bit-identical scalar twin, mirroring its
                # small-batch path's cost profile).
                sub = did[mk]
                u_n = dwell_u[mk]
                if n_norm <= 24:
                    mus = t.mu[sub].tolist()
                    sds = t.sd[sub].tolist()
                    vals[mk] = np.asarray(
                        [max(1, round(m_ + s_ * inverse_normal_cdf_scalar(v)))
                         for m_, s_, v in zip(mus, sds, u_n.tolist())],
                        dtype=np.int32)
                else:
                    draws = t.mu[sub] + t.sd[sub] * inverse_normal_cdf(u_n)
                    vals[mk] = np.maximum(1, np.rint(draws)).astype(np.int32)
            for d_id, dist in t.other_dists:
                mask = did == d_id
                if mask.any():
                    vals[mask] = dist.values_from_uniforms(dwell_u[mask])
            self._next_flat[flat_idx] = t.dst_pad[s_code, choice]
            self._dwell_flat[flat_idx] = vals
            pos = vals > 0
            pend_plus = (np.bincount(s_lane[pos], minlength=k)
                         if pos.any() else None)
        else:
            pend_plus = None
        if pend_minus is not None or pend_plus is not None:
            for i, sim in enumerate(self.lanes):
                delta = ((int(pend_plus[i]) if pend_plus is not None else 0)
                         - (int(pend_minus[i])
                            if pend_minus is not None else 0))
                if delta:
                    sim.sched.n_pending += delta

    def step(self) -> None:
        """Advance every lane one tick.

        Phase order matches :meth:`Simulation.step` per lane
        (interventions, transmission, progression, census); within each
        phase the RNG-free work runs over the stacks and the
        RNG-consuming tails run per lane in lane order.
        """
        first = self.lanes[0]

        with self.metrics.timer("batch.interventions_s"):
            for i, sim in enumerate(self.lanes):
                ops_before = sim.suppressor.total_operations
                for iv in sim.interventions:
                    if iv.maybe_apply(sim):
                        self._ct_iv_fired[i] += 1
                self._ct_iv_ops[i] += (
                    sim.suppressor.total_operations - ops_before)

        with self.metrics.timer("batch.transmission_s"):
            np.take(first.model.is_susceptible, self._health, out=self._sus)
            np.take(first.model.is_infectious, self._health, out=self._inf)
            # Stacked twin of EdgeSuppressor.active_mask_into.
            np.equal(self._supp_count, 0, out=self._active)
            np.logical_and(self._active, self._base_active, out=self._active)

            resolved = self._resolve_backends()
            sus_cat, inf_cat, dur_cat, w_cat, counts = (
                self._candidate_segments(resolved))

            total = int(sus_cat.shape[0])
            if total:
                p = self._batched_propensities(
                    sus_cat, inf_cat, dur_cat, w_cat, counts)
                # One uniform block per lane, drawn into contiguous
                # slices of a flat buffer (``Generator.random(out=...)``
                # consumes the stream exactly like ``random(n)``), then
                # a single whole-batch Bernoulli compare and a single
                # reduceat for the per-lane fire counts.
                cl = counts.tolist()
                u = np.empty(total, dtype=np.float64)
                starts = []
                lane_ids = []
                off = 0
                for i, n_k in enumerate(cl):
                    self._ct_contacts[i] += n_k
                    if n_k:
                        starts.append(off)
                        lane_ids.append(i)
                        self.lanes[i].rng.random(out=u[off:off + n_k])
                        off += n_k
                fired_flat = u < p
                n_fired = np.add.reduceat(fired_flat, starts).tolist()
                # Fired contacts, extracted for all lanes at once.
                # Only the shuffle permutation is per lane (each
                # lane's own generator, its solo bytes); the shuffled
                # gather, the first-exposure dedup, and the entry-code
                # lookup run on the lane-keyed flat arrays — unique on
                # ``lane * N + pid`` is the per-lane uniques
                # concatenated, first occurrences included.
                f_sus = sus_cat[fired_flat]
                f_inf = inf_cat[fired_flat]
                perm_parts = []
                part_lanes = []
                for i, nf in zip(lane_ids, n_fired):
                    if nf:
                        perm_parts.append(
                            self.lanes[i].rng.permutation(nf))
                        part_lanes.append(i)
                if perm_parts:
                    if len(perm_parts) == 1:
                        perm_cat = perm_parts[0]
                        lane_rep_f = np.full(
                            perm_cat.shape[0], part_lanes[0],
                            dtype=np.int64)
                    else:
                        psizes = [q.shape[0] for q in perm_parts]
                        perm_cat = np.concatenate(perm_parts)
                        perm_cat += np.repeat(
                            np.concatenate(
                                ([0], np.cumsum(psizes)[:-1])), psizes)
                        lane_rep_f = np.repeat(
                            np.asarray(part_lanes, dtype=np.int64),
                            psizes)
                    f_sus = f_sus[perm_cat]
                    f_inf = f_inf[perm_cat]
                    key = lane_rep_f * self._n_pop + f_sus
                    uniq_key, first_idx = np.unique(
                        key, return_index=True)
                    codes_cat = first.model.exposed_of[
                        self._health_flat[uniq_key]]
                    lane_u = uniq_key // self._n_pop
                    pids_cat = uniq_key - lane_u * self._n_pop
                    tsizes = np.bincount(
                        lane_u, minlength=len(self.lanes))
                    for i, c in enumerate(tsizes.tolist()):
                        if c:
                            self._ct_transmissions[i] += c
                    self._apply_flat(tsizes, pids_cat, codes_cat,
                                     f_inf[first_idx])

        with self.metrics.timer("batch.progression_s"):
            sizes, pids_flat, codes_flat, n_hit = batched_progression_step(
                self._dwell, self._next_state)
            for i, nh in enumerate(n_hit.tolist()):
                if nh:
                    self.lanes[i].sched.n_pending -= nh
            if pids_flat.size:
                self._apply_flat(sizes, pids_flat, codes_flat, None)

        with self.metrics.timer("batch.census_s"):
            np.add(self._health, self._census_offsets,
                   out=self._census_scratch)
            counts = np.bincount(
                self._census_scratch.ravel(),
                minlength=len(self.lanes) * self._n_states,
            ).reshape(len(self.lanes), self._n_states)
            # Snapshot the python counters the deferred census needs;
            # everything expands into per-lane history at flush time.
            self._census_rows.append(counts)
            self._pend_snap.append(
                [sim.suppressor.n_suppressed + sim.sched.n_pending
                 for sim in self.lanes])
            self._trans_snap.append(list(self._ct_transitions))
            self._ops_snap.append(
                [sim.suppressor.total_operations for sim in self.lanes])
            for sim in self.lanes:
                sim.tick += 1

    def run(self, n_days: int) -> list[SimulationResult]:
        """Run ``n_days`` ticks and assemble one result per lane.

        Each lane's :class:`SimulationResult` is bit-identical to what the
        lane would produce solo (timer metrics excepted — they measure
        wall clock).  The driver times each phase once per tick under
        ``batch.*_s`` and, at flush, credits every lane an equal
        ``total / K`` share across its ticks under the solo ``engine.*_s``
        names, so the Fig. 7 phase breakdown (and its tick counts) stays
        populated when runs go batched.
        """
        if n_days < 0:
            raise ValueError("n_days must be non-negative")
        self.begin()
        for _ in range(n_days):
            self.step()
        self.flush(n_days)
        return self.finish()

    # -- checkpoint hooks --------------------------------------------------------

    def begin(self) -> None:
        """Record each lane's tick-0 census row once (idempotent)."""
        for sim in self.lanes:
            sim._ensure_initial_census()

    def flush(self, n_ticks: int) -> None:
        """Drain the deferred per-tick bookkeeping into the lanes.

        Census rows, memory estimates, work counters, and timer shares all
        accumulate cumulatively, so flushing mid-run (before a checkpoint)
        then continuing is byte-identical to one flush at the end.
        ``n_ticks`` is the tick count since the previous flush (timer
        observation counts only).
        """
        self._flush_census()
        self._flush_counters()
        self._flush_timers(n_ticks)

    def finish(self) -> list[SimulationResult]:
        """Assemble one result per lane (state must be flushed first)."""
        return [sim._assemble_result() for sim in self.lanes]

    def save_state(self, *, ticks_since_flush: int = 0) -> list:
        """Snapshot every lane as a list of CAS-ready payloads.

        Flushes the deferred bookkeeping first so each lane's snapshot is
        self-contained (census/memory history and ``engine.*`` counters up
        to the current tick); pass the ticks advanced since the previous
        flush so timer shares keep their observation counts.
        """
        self.flush(ticks_since_flush)
        return [sim.save_state() for sim in self.lanes]

    def restore_state(self, payloads: list) -> int:
        """Apply per-lane :meth:`save_state` payloads; returns the tick.

        Lane state arrays are written in place, so the stacked row views
        stay live.  All lanes must land on the same tick
        (:class:`BatchIncompatible` otherwise — a torn multi-lane
        checkpoint set must not advance unevenly).
        """
        if len(payloads) != len(self.lanes):
            raise BatchIncompatible(
                f"{len(payloads)} checkpoint payloads for "
                f"{len(self.lanes)} lanes")
        ticks = [sim.restore_state(payload)
                 for sim, payload in zip(self.lanes, payloads)]
        if len(set(ticks)) != 1:
            raise BatchIncompatible(
                f"restored lanes disagree on tick: {sorted(set(ticks))}")
        # The deferred bookkeeping the restored registries already carry
        # must not be re-applied on the next flush.
        self._census_rows.clear()
        self._pend_snap.clear()
        self._trans_snap.clear()
        self._ops_snap.clear()
        k = len(self.lanes)
        for cts in (self._ct_contacts, self._ct_transitions,
                    self._ct_transmissions, self._ct_iv_fired,
                    self._ct_iv_ops):
            cts[:] = [0] * k
        self._trans_base = [
            sim.metrics.value("engine.transitions") for sim in self.lanes]
        return ticks[0]

    def _flush_census(self) -> None:
        """Expand the deferred per-tick snapshots into per-lane history.

        The memory estimate is the inline twin of
        ``Simulation._memory_estimate``, evaluated from the counter
        snapshots taken at each tick's census.
        """
        for i, sim in enumerate(self.lanes):
            base_t = self._trans_base[i]
            counts_hist = sim._counts_history
            mem_hist = sim._memory_history
            mem_fixed = sim._mem_base
            for counts, pend, trans, ops in zip(
                    self._census_rows, self._pend_snap,
                    self._trans_snap, self._ops_snap):
                counts_hist.append(counts[i])
                mem_hist.append(
                    mem_fixed
                    + pend[i] * SCHEDULED_CHANGE_BYTES
                    + (base_t + trans[i]) * TRANSITION_BYTES
                    + ops[i] * EDGE_OP_BYTES)
        self._census_rows.clear()
        self._pend_snap.clear()
        self._trans_snap.clear()
        self._ops_snap.clear()

    def _flush_counters(self) -> None:
        """Move the deferred per-lane work counters into ``engine.*``."""
        names_counts = (
            ("engine.contacts_evaluated", self._ct_contacts),
            ("engine.transitions", self._ct_transitions),
            ("engine.transmissions", self._ct_transmissions),
            ("engine.interventions_fired", self._ct_iv_fired),
            ("engine.intervention_edge_ops", self._ct_iv_ops),
        )
        for name, cts in names_counts:
            for i, sim in enumerate(self.lanes):
                if cts[i]:
                    sim.metrics.inc(name, cts[i])
                cts[i] = 0
        self._trans_base = [
            sim.metrics.value("engine.transitions") for sim in self.lanes]

    def _flush_timers(self, n_ticks: int) -> None:
        """Credit each lane its share of the batch phase clocks.

        A lane advanced solo observes each ``engine.*_s`` phase once per
        tick; the batched twin observes each phase once per tick for the
        whole batch under ``batch.*_s``.  Apportioning ``total / K`` per
        lane with ``n_ticks`` observation counts keeps downstream
        reports (``repro trace summarize``'s Fig. 7 table, per-phase
        shares, tick counts) meaningful regardless of which driver ran
        the instance.  Wall-clock only — work counters are exact and
        flushed separately.
        """
        if n_ticks <= 0:
            return
        k = len(self.lanes)
        for name in ENGINE_TIMERS:
            total = self.metrics.value(f"batch.{name}")
            delta = total - self._timer_flushed[name]
            self._timer_flushed[name] = total
            for sim in self.lanes:
                sim.metrics.observe_n(f"engine.{name}", delta / k, n_ticks)
