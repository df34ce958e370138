"""The EpiHiper discrete-time simulation engine (Appendix D).

One :class:`Simulation` couples a disease model (PTTS), a synthetic
population, and a contact network, and advances them tick by tick (one tick
= one day, Section III).  Each tick: interventions are evaluated, active
contacts are tested for transmission (Eq. 1), and scheduled progressions
fire.  The engine keeps the per-person state in flat numpy arrays and
tracks the work and memory counters that feed the cluster cost model
(Figures 7 and 10).

:class:`Simulation` is the readable reference shell of the tick: each
phase is a call into the one kernel the
:class:`~repro.epihiper.batch.BatchedSimulation` also runs —
:func:`~repro.epihiper.transmission.lane_transmissions` and
:func:`~repro.epihiper.progression.progression_sweep` over the engine's
own arrays viewed as one lane, the intervention loop
(:meth:`Simulation._run_interventions`) and the census row with its
Figure 10 memory estimate (:meth:`Simulation._record_census`).

A tick's work follows what happens that day.  ``health`` changes in one
place per engine (:meth:`Simulation.enter_state` here), and that site
keeps the census, the infectious mask and the frontier degree sum
current (:func:`count_entries`), so no phase re-derives them from every
person; progressions are stored as due ticks, so waiting costs nothing
and the sweep is one comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.registry import TIMER, MetricsRegistry, PhaseClock
from ..obs.spans import Tracer
from ..params import DEFAULT_SEED
from ..synthpop.activities import HOME
from ..synthpop.contacts import ContactNetwork
from ..synthpop.persons import Population
from .disease import DiseaseModel
from .interventions import EdgeSuppressor, IncidentEdges, Intervention
from .output import TransitionLog, TransitionRecorder
from .progression import ProgressionState, progression_step, schedule_entries
from .transmission import CandidateScan, TransmissionBackend, lane_transmissions

#: Bytes per in-memory edge record (ids, timing, contexts, weight, flags);
#: drives the Figure 10 memory model.
EDGE_BYTES: int = 40
NODE_BYTES: int = 24
SCHEDULED_CHANGE_BYTES: int = 24
#: Bytes per recorded transition line and per suppressor operation in the
#: dynamic-memory estimate.
TRANSITION_BYTES: int = 16
EDGE_OP_BYTES: int = 8

#: Work counters (``engine.<name>``) every simulation publishes; declared
#: up front so snapshots carry the full key set from tick zero.
ENGINE_COUNTERS: tuple[str, ...] = (
    "contacts_evaluated",
    "transitions",
    "transmissions",
    "interventions_fired",
    "intervention_edge_ops",
)
#: Per-phase timers (``engine.<name>``), the Figure 7 runtime breakdown.
ENGINE_TIMERS: tuple[str, ...] = (
    "interventions_s",
    "transmission_s",
    "progression_s",
)


def count_entries(model: DiseaseModel, degrees: np.ndarray | None,
                  census: np.ndarray, infectious: np.ndarray,
                  frontier_degree: np.ndarray, lanes: np.ndarray | None,
                  pids: np.ndarray, old: np.ndarray,
                  codes: np.ndarray) -> None:
    """Keep a lane stack's derived state current for a batch of entries.

    Entry ``j`` moved person ``pids[j]`` of lane ``lanes[j]`` (lane 0 when
    ``lanes`` is None) from state ``old[j]`` to ``codes[j]``; persons are
    distinct within a lane.  Updates in place the ``(K, S)`` census (by
    ``bincount(new) - bincount(old)``), the ``(K, N)`` infectious mask and,
    given the per-person contact ``degrees``, the ``(K,)`` frontier degree
    sums — O(entries), whatever N and E are.
    """
    k, n_states = census.shape
    if lanes is None:
        census[0] += np.bincount(codes, minlength=n_states)
        census[0] -= np.bincount(old, minlength=n_states)
    else:
        off = lanes * n_states
        census += (np.bincount(off + codes, minlength=k * n_states)
                   - np.bincount(off + old, minlength=k * n_states)
                   ).reshape(k, n_states)
    is_inf = model.is_infectious
    now = is_inf[codes]
    flip = now != is_inf[old]
    if not flip.any():
        return
    now = now[flip]
    moved = pids[flip]
    lane = 0 if lanes is None else lanes[flip]
    infectious.reshape(-1)[lane * infectious.shape[1] + moved] = now
    if degrees is None:
        return
    deg = degrees[moved]
    signed = np.where(now, deg, -deg)
    if lanes is None:
        frontier_degree[0] += signed.sum()
    else:
        frontier_degree += np.bincount(lane, weights=signed, minlength=k)


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Everything a simulation run produces.

    Attributes:
        region_code: region the run covered.
        n_days: ticks simulated.
        log: the per-transition output (EpiHiper's raw output file).
        state_counts: ``(n_days + 1, n_states)`` census per tick; row 0 is
            the post-initialization census.
        memory_series: per-tick estimated resident bytes (Figure 10).
        metrics: the run's ``engine.*`` telemetry, frozen at completion
            (a :class:`~repro.obs.registry.MetricsRegistry` copy).
    """

    region_code: str
    n_days: int
    log: TransitionLog
    state_counts: np.ndarray
    memory_series: np.ndarray
    metrics: MetricsRegistry

    def attack_rate(self, model: DiseaseModel) -> float:
        """Fraction of the population ever infected."""
        n = int(self.state_counts[0].sum())
        sus = self.state_counts[-1][model.is_susceptible].sum()
        return float(1.0 - sus / n)


class Simulation:
    """A single EpiHiper run over one region's population and network."""

    def __init__(
        self,
        model: DiseaseModel,
        pop: Population,
        net: ContactNetwork,
        *,
        seed: int = DEFAULT_SEED,
        interventions: list[Intervention] | None = None,
        backend: TransmissionBackend | str = TransmissionBackend.AUTO,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if net.n_nodes != pop.size:
            raise ValueError("network and population sizes disagree")
        self.model = model
        self.pop = pop
        self.net = net
        self.rng = np.random.default_rng(seed)
        self.interventions = list(interventions or [])
        self.backend = TransmissionBackend.coerce(backend)

        n = pop.size
        # Everybody starts in the first susceptible state.
        sus_codes = np.flatnonzero(model.is_susceptible)
        if sus_codes.size == 0:
            raise ValueError("model has no susceptible state")
        self.initial_code = int(sus_codes[0])
        self.health = np.full(n, self.initial_code, dtype=np.int8)
        self.sched = ProgressionState.empty(n)
        # Kept current by every ``health`` write (count_entries), never
        # re-derived per tick: the census, the infectious mask, and — once
        # the incident CSR exists to give the degrees — the infectious
        # persons' summed contact degree (the frontier gather workload the
        # ``auto`` rule reads; only a lane with the CSR resolves ``auto``).
        self._census = np.zeros(model.n_states, dtype=np.int64)
        self._infectious = np.zeros(n, dtype=bool)
        self._degrees: np.ndarray | None = None
        self._frontier_degree = np.zeros(1, dtype=np.float64)
        self._sync_derived()

        # rw node scaling traits of Table V.
        self.node_susceptibility = np.ones(n, dtype=np.float64)
        self.node_infectivity = np.ones(n, dtype=np.float64)
        #: user-defined node/edge traits (Table V nodeTrait / edgeTrait).
        self.node_traits: dict[str, np.ndarray] = {}
        self.edge_traits: dict[str, np.ndarray] = {}
        #: user-defined named variables (Table V ``variable``).
        self.variables: dict[str, float] = {}

        self.base_active = net.active.copy()
        self.edge_weight = net.weight.astype(np.float64).copy()
        self.suppressor = EdgeSuppressor(net.n_edges)
        self._incident: IncidentEdges | None = None

        # Tick-loop caches: convert / derive once, reuse every tick instead
        # of reallocating O(|E|) arrays per step.
        self._duration_f64 = net.duration.astype(np.float64)
        self._home_mask = ((net.source_activity == HOME)
                           & (net.target_activity == HOME))
        self._scan = CandidateScan(net.source, net.target, self._duration_f64)
        self._mem_base = net.n_edges * EDGE_BYTES + pop.size * NODE_BYTES

        self.tick = 0
        self.recorder = TransitionRecorder()
        self._counts_history: list[np.ndarray] = []
        self._memory_history: list[int] = []
        # Telemetry: all work counters and phase timers live in the shared
        # registry under ``engine.*``; declared up front so snapshots carry
        # the full key set even before the first step.  The tick loop
        # counts in plain ints and floats (``_work``, ``_clock``) and
        # :meth:`_flush` moves them into the registry at finish and
        # snapshot time — a batched lane's counts take the same route.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        for name in ENGINE_COUNTERS:
            self.metrics.counter(f"engine.{name}")
        for name in ENGINE_TIMERS:
            self.metrics.declare(f"engine.{name}", TIMER)
        self._work = dict.fromkeys(ENGINE_COUNTERS, 0)
        self._clock = PhaseClock(ENGINE_TIMERS)
        self._ticks_unflushed = 0

    # -- derived structures ----------------------------------------------------

    @property
    def incident(self) -> IncidentEdges:
        """Lazily built person -> incident-edge CSR (contact tracing, the
        frontier kernel); from then on the frontier degree sum is kept."""
        if self._incident is None:
            self._incident = IncidentEdges(
                self.net.source, self.net.target, self.pop.size)
            self._track_degrees(self._incident.degrees)
        return self._incident

    def _track_degrees(self, degrees: np.ndarray) -> None:
        """Start keeping the frontier degree sum over ``degrees``."""
        self._degrees = degrees
        self._frontier_degree[...] = degrees[self._infectious].sum()

    def active_edges(self) -> np.ndarray:
        """Effective per-edge activity mask this tick (fresh array)."""
        return self.suppressor.active_mask(self.base_active)

    def home_edge_mask(self) -> np.ndarray:
        """Edges whose both contexts are *home* (kept by isolations).

        Computed once at init; callers must treat the array as read-only.
        """
        return self._home_mask

    def current_state_counts(self) -> np.ndarray:
        """Census over states right now (a copy of the maintained row)."""
        return self._census.copy()

    def _sync_derived(self) -> None:
        """Recompute the census, infectious mask and frontier degree sum
        from ``health`` — at construction and after a checkpoint restore.
        Writes in place: batched lanes hold them as stack row views."""
        self._census[...] = np.bincount(self.health,
                                        minlength=self.model.n_states)
        np.take(self.model.is_infectious, self.health, out=self._infectious)
        if self._degrees is not None:
            self._track_degrees(self._degrees)

    # -- state changes -----------------------------------------------------------

    def enter_state(
        self,
        pids: np.ndarray,
        codes: np.ndarray,
        infectors: np.ndarray | None = None,
    ) -> None:
        """Move distinct ``pids`` into ``codes`` now: record, then schedule
        the next hop."""
        self._enter(pids, codes, infectors, self.tick)

    def _enter(self, pids, codes, infectors, base: int) -> None:
        """:meth:`enter_state` with its schedule base: ``self.tick`` before
        this tick's progression sweep, ``self.tick + 1`` for the entries
        the sweep itself fired (see :func:`schedule_entries`)."""
        pids = np.asarray(pids, dtype=np.int64)
        if pids.size == 0:
            return
        codes = np.asarray(codes, dtype=np.int8)
        old = self.health[pids]
        self.health[pids] = codes
        count_entries(self.model, self._degrees, self._census[None],
                      self._infectious[None], self._frontier_degree, None,
                      pids, old, codes)
        self.recorder.record(self.tick, pids, codes, infectors)
        self._work["transitions"] += pids.size
        schedule_entries(self.model, self.sched, pids, codes,
                         self.pop.age_group, self.rng, base)

    def seed_infections(self, pids: np.ndarray, state: str = "Exposed") -> None:
        """Initialization: move ``pids`` into ``state`` with no infector.

        Appendix D: "Initialization is a special case of an intervention
        where the trigger is omitted"; seeds become dendogram roots.
        """
        pids = np.asarray(pids, dtype=np.int64)
        code = self.model.code(state)
        self.enter_state(pids, np.full(pids.size, code, dtype=np.int8))

    # -- main loop ----------------------------------------------------------------

    def step(self) -> None:
        """Advance one tick (interventions, transmission, progression)."""
        clock, work = self._clock, self._work
        clock.start()
        fired, edge_ops = self._run_interventions()
        work["interventions_fired"] += fired
        work["intervention_edge_ops"] += edge_ops
        clock.lap(0)

        # The frontier/auto kernels also need the incident CSR (built once,
        # shared with tracing).
        counts, _sizes, pids, codes, infectors = lane_transmissions(
            [self.backend], self.model, [self.model.transmissibility],
            [self.rng], self.health[None], self._infectious[None],
            self._frontier_degree, self.node_susceptibility[None],
            self.node_infectivity[None], self.suppressor.count[None],
            self.base_active, self.edge_weight[None], self._scan,
            self.incident
            if self.backend is not TransmissionBackend.DENSE else None)
        work["contacts_evaluated"] += int(counts[0])
        if pids.size:
            work["transmissions"] += pids.size
            self.enter_state(pids, codes, infectors)
        clock.lap(1)

        pids, codes = progression_step(self.sched, self.tick)
        if pids.size:
            self._enter(pids, codes, None, self.tick + 1)
        clock.lap(2)

        self.tick += 1
        self._ticks_unflushed += 1
        self._record_census()

    def _run_interventions(self) -> tuple[int, int]:
        """The intervention phase: evaluate every trigger in stack order.

        Returns ``(fired, edge_ops)`` — interventions applied and suppressor
        edge operations this tick (both drivers' work counters).
        """
        ops_before = self.suppressor.total_operations
        fired = 0
        for iv in self.interventions:
            if iv.maybe_apply(self):
                fired += 1
        return fired, self.suppressor.total_operations - ops_before

    def _record_census(self) -> None:
        """Append one census row and its Figure 10 memory estimate.

        Base cost tracks the partitioned network held in memory; dynamic
        cost grows with scheduled system-state changes (suppressed edges,
        pending progressions, accumulated output) — the paper observes that
        higher intervention compliance means more scheduled changes and
        hence more memory.  Every term is maintained incrementally, so the
        row and the estimate are O(states) instead of re-summing
        O(|E| + |V|) arrays; transitions counted but not yet flushed into
        ``engine.transitions`` are included.
        """
        transitions = (self.metrics.value("engine.transitions")
                       + self._work["transitions"])
        self._counts_history.append(self._census.copy())
        self._memory_history.append(
            self._mem_base
            + self.suppressor.n_suppressed * SCHEDULED_CHANGE_BYTES
            + self.sched.n_pending * SCHEDULED_CHANGE_BYTES
            + transitions * TRANSITION_BYTES
            + self.suppressor.total_operations * EDGE_OP_BYTES)

    def run(self, n_days: int) -> SimulationResult:
        """Run ``n_days`` ticks and assemble the result.

        With a tracer attached the whole run is one ``engine:run`` span;
        tracing never touches the RNG stream, so traced and bare runs
        produce bit-identical outputs.
        """
        if n_days < 0:
            raise ValueError("n_days must be non-negative")
        if self.tracer is not None:
            with self.tracer.span("engine:run",
                                  region=self.net.region_code,
                                  n_days=n_days):
                return self._run(n_days)
        return self._run(n_days)

    def _run(self, n_days: int) -> SimulationResult:
        self.begin()
        for _ in range(n_days):
            self.step()
        return self.finish()

    # -- checkpoint hooks --------------------------------------------------------

    def begin(self) -> None:
        """Prepare for stepping: record the tick-0 census row once.

        Public twin of the ``_run`` preamble so checkpoint-aware drivers
        can own the tick loop themselves; idempotent, and a no-op after a
        :meth:`restore_state` (the restored history already has its rows).
        """
        self._ensure_initial_census()

    def finish(self) -> SimulationResult:
        """Assemble the result for the ticks advanced so far."""
        self._flush()
        return self._assemble_result()

    def _flush(self) -> None:
        """Move the unflushed work counters and phase seconds into
        ``engine.*`` (timers observed once per tick advanced since the
        last flush).  Cumulative, so flushing before a snapshot and again
        at the end equals one flush at the end."""
        work = self._work
        for name, n in work.items():
            if n:
                self.metrics.inc(f"engine.{name}", n)
                work[name] = 0
        self._clock.flush(self.metrics, "engine.", self._ticks_unflushed)
        self._ticks_unflushed = 0

    def save_state(self) -> dict[str, np.ndarray]:
        """Snapshot the full mutable state as a flat CAS-ready payload.

        Captures everything :meth:`restore_state` needs for a bit-identical
        resume: state arrays, remaining dwell, RNG stream position,
        transition log, census/memory histories, ``engine.*`` counters
        (flushed first), and the mutable values inside intervention
        closures.
        """
        from ..checkpoint.format import snapshot_simulation

        self._flush()
        return snapshot_simulation(self)

    def restore_state(self, payload) -> int:
        """Apply a :meth:`save_state` payload in place; returns the tick.

        The simulation must have been freshly prepared for the same
        instance spec (same assets, parameters, seed, interventions).
        Raises :class:`~repro.checkpoint.format.CheckpointError` when the
        snapshot does not match this instance.  Resuming then running to
        day T yields byte-identical outputs to an uninterrupted run.
        """
        from ..checkpoint.format import restore_simulation

        tick = restore_simulation(self, payload)
        # The restored registry already holds every count up to ``tick``.
        for name in self._work:
            self._work[name] = 0
        self._ticks_unflushed = 0
        return tick

    def _ensure_initial_census(self) -> None:
        """Record the post-initialization census once (tick-0 row)."""
        if not self._counts_history:
            self._record_census()

    def _assemble_result(self) -> SimulationResult:
        """Freeze the run into a :class:`SimulationResult`.

        Shared by :meth:`_run` and the batched driver
        (:class:`~repro.epihiper.batch.BatchedSimulation`), which advances
        many simulations through their per-tick phases itself and then
        assembles each lane's result exactly as a solo run would.
        """
        return SimulationResult(
            region_code=self.net.region_code,
            n_days=self.tick,
            log=self.recorder.finalize(),
            state_counts=np.vstack(self._counts_history),
            memory_series=np.asarray(self._memory_history, dtype=np.int64),
            metrics=MetricsRegistry().merge(self.metrics.dump("engine.")),
        )
