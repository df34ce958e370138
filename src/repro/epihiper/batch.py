"""Batched multi-replicate execution: K replicates per vectorized tick.

Calibration sweeps, ensemble designs, and the scenario service all run many
*replicates* of the same region — identical population, network, and
horizon, differing only in RNG seed and cell parameters.  At calibration
scales the per-tick numpy kernels are dispatch-bound: every whole-array
operation pays a fixed interpreter + ufunc-setup cost that dwarfs the
arithmetic.  :class:`BatchedSimulation` amortises that cost by advancing K
replicates through each tick phase together, operating on ``(K, N)`` /
``(K, E)`` stacks instead of K separate ``(N,)`` / ``(E,)`` arrays.

The tick itself is not written here: every phase calls the function the
solo :class:`~repro.epihiper.engine.Simulation` calls —
:func:`~repro.epihiper.transmission.lane_transmissions`,
:func:`~repro.epihiper.progression.progression_sweep` and the two
schedulers, each lane's intervention loop and census row — with K lanes
where the solo engine passes one.  This module owns what only a batch
has: the stacks, the compatibility gate and the flat ``enter_state``
(:meth:`BatchedSimulation._apply_flat`), the one site where a batch
changes ``health`` and so keeps every lane's census, infectious mask and
frontier degree sum current (:func:`~repro.epihiper.engine.count_entries`);
work counters accrue on the lanes, as in a solo run.

The batching is *lane-view* based: each replicate remains a full
:class:`~repro.epihiper.engine.Simulation` ("lane") whose state arrays are
rebound to row views of the shared stacks.  Everything that consumes
randomness — interventions, transmission Bernoulli draws, progression
scheduling, seeding — keeps running per lane against the lane's own
``Generator``, in the exact order a solo run executes it; only the RNG-free
work runs over the stacks.  Because lanes draw from independent
generators, interleaving their phases is free, and each lane's stream
consumption is untouched — a replicate batched alongside others emits
exactly the bytes it emits alone.  Equivalence is exact, not statistical.

Kernel choice inside a batch is a pure speed decision: the dense and
frontier kernels enumerate identical candidates in identical order with
identical RNG consumption, so ``auto`` lanes may resolve differently
batched than solo without changing a single output byte.  The batch
resolves all its ``auto`` lanes *together* (one decision over the summed
frontier workload) so they land on the same kernel and the dense scan
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

from ..obs.registry import GAUGE, TIMER, MetricsRegistry, PhaseClock
from .engine import (
    ENGINE_TIMERS,
    Simulation,
    SimulationResult,
    count_entries,
)
from .progression import (
    _SMALL_BATCH,
    SchedTables,
    _dwell_key,
    _schedule_small,
    progression_sweep,
    schedule_lanes,
)
from .transmission import CandidateScan, lane_transmissions

#: Per-phase timers (``batch.<name>``) the batched driver publishes — the
#: stacked-kernel counterpart of the engine's Figure 7 breakdown.
BATCH_TIMERS: tuple[str, ...] = (
    "interventions_s",
    "transmission_s",
    "progression_s",
    "census_s",
)


class BatchIncompatible(ValueError):
    """The given lanes cannot share one batched tick loop.

    Raised on construction, before any lane is touched, when
    :func:`_require_compatible` finds a mismatch; the message names it.
    There is no in-kernel detour: the worker entry
    (``core/parallel._execute_group``) answers by running the group as
    one group per spec — the solo reference path.
    """


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
            if any(_dwell_key(x) != _dwell_key(y)
                   for x, y in zip(out0[2], out[2])):
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

    After construction each lane's ``health``, ``sched.due``,
    ``sched.next_state``, ``suppressor.count``, ``edge_weight``,
    ``node_susceptibility`` and ``node_infectivity`` arrays, and its
    census, infectious mask and frontier degree sum, are row views into
    stacks the batch owns; the lanes remain fully functional
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
        self._n_states = first.model.n_states

        # Stack the per-lane state and rebind the lanes to row views; all
        # existing state (mid-run batching included) is preserved.  NPIs
        # mutate these arrays only in place, so the views stay live.
        self._health = np.empty((k, n), dtype=np.int8)
        self._due = np.empty((k, n), dtype=np.int32)
        self._next_state = np.empty((k, n), dtype=np.int8)
        self._supp_count = np.empty((k, e), dtype=np.int16)
        self._edge_weight = np.empty((k, e), dtype=np.float64)
        self._node_sus = np.empty((k, n), dtype=np.float64)
        self._node_inf = np.empty((k, n), dtype=np.float64)
        self._census = np.empty((k, self._n_states), dtype=np.int64)
        self._infectious = np.empty((k, n), dtype=bool)
        self._frontier_degree = np.empty(k, dtype=np.float64)
        for i, sim in enumerate(self.lanes):
            self._health[i] = sim.health
            self._due[i] = sim.sched.due
            self._next_state[i] = sim.sched.next_state
            self._supp_count[i] = sim.suppressor.count
            self._edge_weight[i] = sim.edge_weight
            self._node_sus[i] = sim.node_susceptibility
            self._node_inf[i] = sim.node_infectivity
            self._census[i] = sim._census
            self._infectious[i] = sim._infectious
            self._frontier_degree[i] = sim._frontier_degree[0]
            sim.health = self._health[i]
            sim.sched.due = self._due[i]
            sim.sched.next_state = self._next_state[i]
            sim.suppressor.count = self._supp_count[i]
            sim.edge_weight = self._edge_weight[i]
            sim.node_susceptibility = self._node_sus[i]
            sim.node_infectivity = self._node_inf[i]
            sim._census = self._census[i]
            sim._infectious = self._infectious[i]
            sim._frontier_degree = self._frontier_degree[i:i + 1]

        self._health_flat = self._health.reshape(-1)
        self._lane_arange = np.arange(k, dtype=np.int64)
        self._n_pop = n

        # Cross-lane scheduling tables (lanes agree on structure and dwell
        # values; probabilities are per lane).
        self._sched_tables = SchedTables([sim.model for sim in self.lanes])

        # One incident CSR serves every lane (it is read-only and the
        # lanes share the network); build it eagerly so frontier/auto
        # resolution never pays the lazy construction mid-run.  Its
        # degree column serves every lane's frontier degree sum.
        incident = first.incident
        self._degrees = incident.degrees
        for sim in self.lanes:
            sim._incident = incident
            sim._track_degrees(self._degrees)
        self._incident = incident
        self._scan = CandidateScan(first.net.source, first.net.target,
                                   first._duration_f64)

        # One row serves every lane's edge activity: the lanes' base
        # edge-activity copies are equal (checked above) and nothing
        # mutates them — NPIs act through the suppressor.
        self._base_active = first.base_active

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.declare("batch.size", GAUGE)
        self.metrics.gauge("batch.size", k)
        for name in BATCH_TIMERS:
            self.metrics.declare(f"batch.{name}", TIMER)
        #: batch phase seconds not yet flushed into ``batch.*_s`` and the
        #: lanes' ``engine.*_s``.
        self._clock = PhaseClock(BATCH_TIMERS)

    def _apply_flat(self, sizes, pids_cat, codes_cat, inf_cat,
                    base: int) -> None:
        """Batched ``enter_state`` from lane-major flat entry arrays.

        ``sizes[i]`` is lane i's entry count; ``pids_cat``/``codes_cat``
        are the per-lane entries concatenated in lane order (each lane's
        solo order).  ``inf_cat`` is the flat infector column or ``None``
        for progression entries, and ``base`` the schedule base the solo
        ``_enter`` would pass.  One flat write updates every lane's health
        row and one :func:`~repro.epihiper.engine.count_entries` call its
        derived state; recording runs per lane (each lane owns its
        recorder), and next-hop scheduling takes one of the two
        schedulers, by entry count.
        """
        total = pids_cat.shape[0]
        if total == 0:
            return
        sl = sizes.tolist()
        lane_rep = np.repeat(self._lane_arange, sizes)
        flat = pids_cat + lane_rep * self._n_pop
        old = self._health_flat[flat]
        self._health_flat[flat] = codes_cat
        count_entries(self.lanes[0].model, self._degrees, self._census,
                      self._infectious, self._frontier_degree, lane_rep,
                      pids_cat, old, codes_cat)
        ticks = np.full(total, self.lanes[0].tick, dtype=np.int32)
        if inf_cat is None:
            inf_cat = np.full(total, -1, dtype=np.int64)
        off = 0
        for i, n_k in enumerate(sl):
            if n_k == 0:
                continue
            self.lanes[i].recorder.record_chunks(
                ticks[off:off + n_k], pids_cat[off:off + n_k],
                codes_cat[off:off + n_k], inf_cat[off:off + n_k])
            self.lanes[i]._work["transitions"] += n_k
            off += n_k
        if total <= _SMALL_BATCH:
            # No more entries than the one-lane cutoff: the lanes' scalar
            # twins together cost less than one cross-lane pass (measured
            # on night_replicates-shaped groups).
            off = 0
            for i, n_k in enumerate(sl):
                if n_k == 0:
                    continue
                sim = self.lanes[i]
                _schedule_small(
                    sim.model, sim.sched, pids_cat[off:off + n_k],
                    codes_cat[off:off + n_k], sim.pop.age_group, sim.rng,
                    base)
                off += n_k
        else:
            schedule_lanes(
                self._sched_tables, [sim.sched for sim in self.lanes],
                self._due, self._next_state, lane_rep, pids_cat, codes_cat,
                self.lanes[0].pop.age_group, [sim.rng for sim in self.lanes],
                base)

    def step(self) -> None:
        """Advance every lane one tick.

        Phase order matches :meth:`Simulation.step` per lane
        (interventions, transmission, progression, census), and each phase
        calls the same function the solo engine calls, here over the K-lane
        stacks; everything that consumes randomness runs per lane in lane
        order against the lane's own generator.
        """
        lanes = self.lanes
        clock = self._clock
        clock.start()
        for sim in lanes:
            fired, edge_ops = sim._run_interventions()
            sim._work["interventions_fired"] += fired
            sim._work["intervention_edge_ops"] += edge_ops
        clock.lap(0)

        tick = lanes[0].tick
        counts, sizes, pids, codes, infectors = lane_transmissions(
            [sim.backend for sim in lanes], lanes[0].model,
            [sim.model.transmissibility for sim in lanes],
            [sim.rng for sim in lanes], self._health, self._infectious,
            self._frontier_degree, self._node_sus, self._node_inf,
            self._supp_count, self._base_active, self._edge_weight,
            self._scan, self._incident)
        for sim, c in zip(lanes, counts.tolist()):
            sim._work["contacts_evaluated"] += c
        if pids.size:
            for sim, c in zip(lanes, sizes.tolist()):
                sim._work["transmissions"] += c
            self._apply_flat(sizes, pids, codes, infectors, tick)
        clock.lap(1)

        sizes, pids, codes, n_hit = progression_sweep(
            self._due, self._next_state, tick + 1)
        for sim, nh in zip(lanes, n_hit.tolist()):
            sim.sched.n_pending -= nh
        if pids.size:
            self._apply_flat(sizes, pids, codes, None, tick + 1)
        clock.lap(2)

        for sim in lanes:
            sim.tick += 1
            sim._record_census()
        clock.lap(3)

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
        """Drain the lanes' work counters and the phase seconds.

        Both accumulate cumulatively, so flushing mid-run (before a
        checkpoint) then continuing is byte-identical to one flush at the
        end.  ``n_ticks`` is the tick count since the previous flush (timer
        observation counts only).  A lane advanced solo observes each
        ``engine.*_s`` phase once per tick; the batch times each phase once
        per tick for all its lanes under ``batch.*_s`` and credits every
        lane ``total / K`` with ``n_ticks`` observations, so downstream
        reports (``repro trace summarize``'s Fig. 7 table, per-phase
        shares, tick counts) stay meaningful whether the instance ran
        solo or batched.
        """
        for sim in self.lanes:
            sim._flush()
        if n_ticks <= 0:
            return
        k = len(self.lanes)
        for name, seconds in zip(self._clock.names, self._clock.seconds):
            if name in ENGINE_TIMERS:
                for sim in self.lanes:
                    sim.metrics.observe_n(f"engine.{name}", seconds / k,
                                          n_ticks)
        self._clock.flush(self.metrics, "batch.", n_ticks)

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
        return ticks[0]
