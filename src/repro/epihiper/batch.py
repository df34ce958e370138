"""The tick loop: K lanes advanced through each tick together.

:class:`BatchedSimulation` is the one driver.  A solo run is a batch of
one (:meth:`~repro.epihiper.engine.Simulation.run` builds it);
calibration sweeps, ensemble designs and the scenario service batch many
*replicates* of one region (same population, network and horizon,
differing in RNG seed and cell parameters), and a national sweep batches
lone regions as a *disjoint union* of their networks.  At calibration
scales the per-tick numpy kernels are dispatch-bound: every whole-array
operation pays a fixed interpreter + ufunc-setup cost that dwarfs the
arithmetic, so advancing K lanes through each tick phase together, over
flat stacks instead of K separate arrays, amortises it.

The stacks are flat and lane-major: lane i owns the persons from
``offsets[i]`` to ``offsets[i + 1]`` and the next ``E_i`` edges, its
network's.  Lanes that replicate one network are the case where the
offsets step by N and E, so there is one layout and one code path; a
flat position maps back to a lane-local id by subtracting the lane's
offset.  The stacks hold only what ticks write.  What no tick writes is
held once per distinct network, in one
:class:`~repro.epihiper.engine.SharedNetwork` that every lane on the
network reads (its edge columns and base activity, its
:class:`~repro.epihiper.interventions.IncidentEdges` CSR and degree
column, its home-edge mask and the dense scan's tables), and the
constructor is the one place that decides which lanes share one.

Every phase calls its one kernel with K lanes:
:func:`~repro.epihiper.transmission.lane_transmissions`,
:func:`~repro.epihiper.progression.progression_sweep` and the two
schedulers, and each lane's intervention loop and census row.  This
module owns the stacks, the compatibility gate, the flat entry
(:meth:`BatchedSimulation._apply_flat`) — where a tick's transmissions
and progressions change ``health`` and so keep every lane's census,
infectious mask and frontier degree sum current
(:func:`~repro.epihiper.engine.count_entries`) — the phase clock, and
the checkpoint hooks: a snapshot is one payload per lane
(:func:`~repro.checkpoint.format.snapshot_simulation`).  Work counters
accrue on the lanes and the driver drains them at flush.

Each lane remains a full :class:`~repro.epihiper.engine.Simulation`
whose state arrays are rebound to slices of the flat stacks (a lone
lane's stacks are its own arrays, so a solo run copies nothing).
Everything that consumes randomness — interventions, transmission
Bernoulli draws, progression scheduling, seeding — keeps running per
lane against the lane's own ``Generator``, in the exact order a one-lane
run executes it; only the RNG-free work runs over the stacks.  Because
lanes draw from independent generators, interleaving their phases is
free, and each lane's stream consumption is untouched — a lane batched
alongside others emits exactly the bytes it emits alone.  Equivalence is
exact, not statistical.

Kernel choice is a pure speed decision: the dense and frontier kernels
enumerate identical candidates in identical order with identical RNG
consumption, so a lane may run a different kernel batched than solo
without changing a single output byte.  Each tick takes one decision for
all its lanes (over the summed frontier workload).

What may share a batch is decided once, at construction
(:func:`_require_compatible`): lanes must share tick, state-space size,
progression structure and dwell values, and the sigma / iota / omega
tables and susceptible -> exposed map.  Anything else raises
:class:`BatchIncompatible` and the caller runs the group as singles; the
tick loop itself carries no per-lane fallback.

Interventions and NPIs need no porting: they reach state only through the
lane's public surface (``health``, ``enter_state``, ``suppressor``,
``node_susceptibility``, ``rng``, ``incident``), all of which resolve to
the lane's slices and its own network, and ``edge_weight``, which stays
per lane: every lane reads its network's one shared weight column until
an NPI rescales its weights and it takes a private float64 copy, so only
lanes that mask pay 8 B per edge.
"""

from __future__ import annotations

import numpy as np

from ..obs.registry import GAUGE, TIMER, MetricsRegistry, PhaseClock
from .engine import (
    ENGINE_COUNTERS,
    ENGINE_TIMERS,
    SharedNetwork,
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

#: Per-phase timers (``batch.<name>``) a driver of K >= 2 lanes publishes —
#: the stacked-kernel counterpart of the engine's Figure 7 breakdown.
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
    one group per spec, each a batch of one.
    """


def _concat(rows: list[np.ndarray]) -> np.ndarray:
    """The lanes' arrays as one flat stack, lane after lane; a lone lane's
    own array, so nothing is copied."""
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _flatten(owners: list, name: str, bounds: list[int]) -> np.ndarray:
    """Concatenate each owner's array ``name`` into one flat stack and
    rebind the owner to its slice ``bounds[i]:bounds[i + 1]``, one array
    at a time, so an owner's old array is freed before the next stack is
    built."""
    flat = _concat([getattr(owner, name) for owner in owners])
    for owner, lo, hi in zip(owners, bounds, bounds[1:]):
        setattr(owner, name, flat[lo:hi])
    return flat


def _require_compatible(first: Simulation, sim: Simulation) -> None:
    """Raise :class:`BatchIncompatible` unless ``sim`` can share ``first``'s
    tick loop; the message names the mismatch.

    The one place "what may share a batch" is decided.  Lanes may differ
    in region (population, network and base edge activity), seed,
    transmissibility, transition *probabilities* (calibration moves TAU
    and the symptomatic fraction) and interventions; everything the
    stacked kernels read once for the whole batch must agree: the tick,
    the state-space size, the PTTS graph structure and dwell-distribution
    values (the padded scheduling tables and canonical dwell objects
    serve every lane), and the sigma / iota / omega tables and
    susceptible -> exposed map (one Eq. 1 evaluation and one entry-code
    gather).
    """
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


class BatchedSimulation:
    """Advance K :class:`Simulation` lanes through shared ticks.

    Lanes must sit at the same tick and have models that agree on
    state-space size, progression structure and dwell values, and the
    sigma / iota / omega tables and susceptible -> exposed map
    (:func:`_require_compatible`; any mismatch raises
    :class:`BatchIncompatible` and leaves the lanes as they were handed
    in); regions, seeds, cell parameters (model transmissibility,
    symptomatic fraction) and interventions may differ per lane.

    After construction each lane's ``health``, ``sched.due``,
    ``sched.next_state``, ``node_susceptibility``, ``node_infectivity``,
    and ``suppressor.count`` arrays, and its census,
    infectious mask and frontier degree sum, are slices of flat stacks
    the batch owns: lane i's persons start at ``offsets[i]`` and its
    edges follow the lanes before it.  The lanes remain fully functional
    Simulations and assemble their own per-replicate results.  A batch
    of one publishes no ``batch.*`` telemetry: its lane's ``engine.*``
    names say everything.
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

        # The one place that decides what is held per network: lanes on
        # one population and network share one SharedNetwork (its
        # columns, incident CSR, home mask and dense tables), built here
        # so the frontier kernel never pays for the CSR mid-run, and the
        # network's read-only person columns (contact degrees, age
        # groups): lane i's persons sit at ``_net_starts[i]`` of
        # ``_net_degrees`` / ``_net_ages``.
        shared: dict[tuple[int, int], tuple[SharedNetwork, int]] = {}
        starts, ages, n_held = [], [], 0
        for sim in self.lanes:
            key = (id(sim.pop), id(sim.net))
            if key not in shared:
                shared[key] = (sim.network, n_held)
                ages.append(sim.pop.age_group)
                n_held += sim.pop.size
            sim._network, start = shared[key]
            starts.append(start)
        self._net_degrees = _concat([net.incident.degrees
                                     for net, _ in shared.values()])
        if len(shared) > 1:
            # Each CSR's degree column becomes its slice: held once.
            for net, lo in shared.values():
                hi = lo + net.n_nodes
                net.incident._degrees = self._net_degrees[lo:hi]
        self._net_ages = _concat(ages)
        self._net_starts = np.array(starts, dtype=np.int64)
        self._scan = CandidateScan([sim.network for sim in self.lanes])
        self._offsets = self._scan.offsets

        # Flatten the per-lane state and rebind the lanes to slices; all
        # existing state (mid-run batching included) is preserved.  NPIs
        # mutate these arrays only in place, so the views stay live.
        persons = self._offsets.tolist()
        edges = [0]
        for sim in self.lanes:
            edges.append(edges[-1] + sim.net.n_edges)
        scheds = [sim.sched for sim in self.lanes]
        self._health = _flatten(self.lanes, "health", persons)
        self._due = _flatten(scheds, "due", persons)
        self._next_state = _flatten(scheds, "next_state", persons)
        self._node_sus = _flatten(self.lanes, "node_susceptibility", persons)
        self._node_inf = _flatten(self.lanes, "node_infectivity", persons)
        self._infectious = _flatten(self.lanes, "_infectious", persons)
        self._supp_count = _flatten([sim.suppressor for sim in self.lanes],
                                    "count", edges)
        self._frontier_degree = _flatten(self.lanes, "_frontier_degree",
                                         list(range(k + 1)))
        self._census = (first._census[None] if k == 1
                        else np.stack([sim._census for sim in self.lanes]))
        for i, sim in enumerate(self.lanes):
            sim._census = self._census[i]
            sim._track_degrees(sim.network.incident.degrees)
        self._lane_arange = np.arange(k, dtype=np.int64)

        # Cross-lane scheduling tables (lanes agree on structure and dwell
        # values; probabilities are per lane).
        self._sched_tables = SchedTables([sim.model for sim in self.lanes])

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if k > 1:
            self.metrics.declare("batch.size", GAUGE)
            self.metrics.gauge("batch.size", k)
            for name in BATCH_TIMERS:
                self.metrics.declare(f"batch.{name}", TIMER)
        #: phase seconds not yet flushed into the lanes' ``engine.*_s``
        #: (and, for K >= 2, ``batch.*_s``).
        self._clock = PhaseClock(BATCH_TIMERS)

    def _apply_flat(self, sizes, pids_cat, codes_cat, inf_cat,
                    base: int) -> None:
        """The tick's ``enter_state`` from lane-major flat entry arrays.

        ``sizes[i]`` is lane i's entry count; ``pids_cat``/``codes_cat``
        are the per-lane entries (lane-local pids) concatenated in lane
        order (each lane's own order).  ``inf_cat`` is the flat infector
        column or ``None`` for progression entries, and ``base`` the
        schedule base: the current tick for transmissions, the next one
        for the entries the tick's own sweep fired.  One flat write at the
        entries' stack positions updates every lane's health and one
        :func:`~repro.epihiper.engine.count_entries` call its derived
        state; recording runs per lane (each lane owns its recorder), and
        next-hop scheduling takes one of the two schedulers, by entry
        count.
        """
        total = pids_cat.shape[0]
        if total == 0:
            return
        sl = sizes.tolist()
        if len(sl) == 1:
            # A lone lane's pids are its stack and network positions: no
            # lane column (count_entries reads None as lane 0), so K = 1
            # adds no per-entry work.
            lane_rep, flat, at = None, pids_cat, pids_cat
        else:
            lane_rep = self._lane_arange.repeat(sizes)
            flat = pids_cat + self._offsets[lane_rep]
            at = pids_cat + self._net_starts[lane_rep]
        old = self._health[flat]
        self._health[flat] = codes_cat
        count_entries(self.lanes[0].model, self._net_degrees,
                      self._census, self._infectious, self._frontier_degree,
                      lane_rep, flat, at, old, codes_cat)
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
                self._due, self._next_state,
                np.zeros(total, dtype=np.int64) if lane_rep is None
                else lane_rep, flat, codes_cat, self._net_ages[at],
                [sim.rng for sim in self.lanes], base)

    def step(self) -> None:
        """Advance every lane one tick.

        Phases run in order — interventions, transmission, progression,
        census — each calling its one kernel over the flat lane stacks;
        everything that consumes randomness runs per lane in lane order
        against the lane's own generator.
        """
        lanes = self.lanes
        clock = self._clock
        clock.start()
        for sim in lanes:
            sim._run_interventions()
        clock.lap(0)

        tick = lanes[0].tick
        counts, sizes, pids, codes, infectors = lane_transmissions(
            lanes[0].model,
            [sim.model.transmissibility for sim in lanes],
            [sim.rng for sim in lanes], self._health, self._infectious,
            self._frontier_degree, self._node_sus, self._node_inf,
            self._supp_count, [sim.tick_weight for sim in lanes], self._scan)
        for sim, c in zip(lanes, counts.tolist()):
            sim._work["contacts_evaluated"] += c
        if pids.size:
            for sim, c in zip(lanes, sizes.tolist()):
                sim._work["transmissions"] += c
            self._apply_flat(sizes, pids, codes, infectors, tick)
        clock.lap(1)

        sizes, pids, codes, n_hit = progression_sweep(
            self._due, self._next_state, self._offsets, tick + 1)
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
        lane produces in a batch of one (timer metrics excepted — they
        measure wall clock).
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
        """Record each lane's tick-0 census row once: idempotent, and a
        no-op after :meth:`restore_state` (the restored history already
        has its rows)."""
        for sim in self.lanes:
            if not sim._counts_history:
                sim._record_census()

    def flush(self, n_ticks: int) -> None:
        """Drain the lanes' work counters and the phase seconds.

        Both accumulate cumulatively, so flushing mid-run (before a
        checkpoint) then continuing is byte-identical to one flush at the
        end.  ``n_ticks`` is the tick count since the previous flush (timer
        observation counts only).  Each phase is timed once per tick for
        all lanes; every lane is credited ``total / K`` of it with
        ``n_ticks`` observations under ``engine.*_s``, so downstream
        reports (``repro trace summarize``'s Fig. 7 table, per-phase
        shares, tick counts) read the same whatever the batch size, and a
        batch of K >= 2 also observes the totals under ``batch.*_s``.
        """
        for sim in self.lanes:
            work = sim._work
            for name, n in work.items():
                if n:
                    sim.metrics.inc(f"engine.{name}", n)
                    work[name] = 0
        if n_ticks <= 0:
            return
        clock, k = self._clock, len(self.lanes)
        for name, seconds in zip(clock.names, clock.seconds):
            if name in ENGINE_TIMERS:
                for sim in self.lanes:
                    sim.metrics.observe_n(f"engine.{name}", seconds / k,
                                          n_ticks)
            if k > 1:
                self.metrics.observe_n(f"batch.{name}", seconds, n_ticks)
        clock.seconds = [0.0] * len(clock.names)

    def finish(self) -> list[SimulationResult]:
        """Assemble one result per lane (state must be flushed first)."""
        return [sim._assemble_result() for sim in self.lanes]

    def save_state(self, *, ticks_since_flush: int = 0) -> list:
        """Snapshot every lane: one CAS-ready payload per lane
        (:func:`~repro.checkpoint.format.snapshot_simulation`).

        Captures everything :meth:`restore_state` needs for a bit-identical
        resume.  Flushes first so each lane's snapshot is self-contained
        (census/memory history and ``engine.*`` counters up to the current
        tick); pass the ticks advanced since the previous flush so timer
        shares keep their observation counts.
        """
        from ..checkpoint.format import snapshot_simulation

        self.flush(ticks_since_flush)
        return [snapshot_simulation(sim) for sim in self.lanes]

    def restore_state(self, payloads: list) -> int:
        """Apply one :meth:`save_state` payload per lane; returns the tick.

        The lanes must have been freshly prepared for the same instance
        specs (same assets, parameters, seeds, interventions);
        :class:`~repro.checkpoint.format.CheckpointError` is raised when
        a snapshot does not match its lane.  Lane state arrays are written
        in place, so the stack slices stay live.  All lanes must land
        on the same tick (:class:`BatchIncompatible` otherwise — a torn
        multi-lane checkpoint set must not advance unevenly).  Resuming
        then running to day T yields byte-identical outputs to an
        uninterrupted run.
        """
        from ..checkpoint.format import restore_simulation

        if len(payloads) != len(self.lanes):
            raise BatchIncompatible(
                f"{len(payloads)} checkpoint payloads for "
                f"{len(self.lanes)} lanes")
        ticks = set()
        for sim, payload in zip(self.lanes, payloads):
            ticks.add(restore_simulation(sim, payload))
            # The restored registry already holds every count up to here.
            sim._work = dict.fromkeys(ENGINE_COUNTERS, 0)
        if len(ticks) != 1:
            raise BatchIncompatible(
                f"restored lanes disagree on tick: {sorted(ticks)}")
        return ticks.pop()
