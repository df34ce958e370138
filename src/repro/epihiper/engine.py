"""The EpiHiper discrete-time simulation engine (Appendix D).

One :class:`Simulation` couples a disease model (PTTS), a synthetic
population, and a contact network for one instance: the per-person state
in flat numpy arrays, the instance's interventions, random stream and
transition log, and the work and memory counters that feed the cluster
cost model (Figures 7 and 10).  Each tick (one tick = one day, Section
III) interventions are evaluated, active contacts are tested for
transmission (Eq. 1), and scheduled progressions fire.

A :class:`Simulation` is a *lane*; it has no tick loop of its own.  The
one driver is :class:`~repro.epihiper.batch.BatchedSimulation`, and a
solo run is a batch of one (:meth:`Simulation.run` builds it).  The lane
keeps the surface interventions, NPIs and seeding use —
:meth:`Simulation.enter_state`, :attr:`Simulation.network`, the edge
weights — and the two per-lane tick phases the driver calls: the
intervention loop (:meth:`Simulation._run_interventions`) and the census
row with its Figure 10 memory estimate (:meth:`Simulation._record_census`).

A lane holds only what its ticks write: its per-person state, its edge
suppression counts and, once it masks, its own weights.  What no tick
writes — the network's columns, its incident CSR, its home-edge mask and
the dense scan's tables — is one :class:`SharedNetwork` per network,
which the driver hands every lane on that network.

A tick's work follows what happens that day.  ``health`` changes in two
places — :meth:`Simulation.enter_state` for entries outside the tick's
kernels and the driver's flat entry for the rest — and both keep the
census, the infectious mask and the frontier degree sum current
(:func:`count_entries`), so no phase re-derives them from every person;
progressions are stored as due ticks, so waiting costs nothing and the
sweep is one comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.registry import TIMER, MetricsRegistry
from ..params import DEFAULT_SEED
from ..synthpop.activities import HOME
from ..synthpop.contacts import ContactNetwork
from ..synthpop.persons import Population
from .disease import DiseaseModel
from .interventions import EdgeSuppressor, IncidentEdges, Intervention
from .output import TransitionLog, TransitionRecorder
from .progression import ProgressionState, schedule_entries

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
                  positions: np.ndarray, net_positions: np.ndarray,
                  old: np.ndarray, codes: np.ndarray) -> None:
    """Keep a lane stack's derived state current for a batch of entries.

    Entry ``j`` moved a person of lane ``lanes[j]`` (lane 0 when
    ``lanes`` is None) from state ``old[j]`` to ``codes[j]``; the person
    sits at ``positions[j]`` of the flat ``infectious`` stack and at
    ``net_positions[j]`` of ``degrees``, its network's per-person contact
    degrees (held once per network, so lanes that replicate one network
    share it).  Positions are distinct.  Updates in place the ``(K, S)``
    census (by ``bincount(new) - bincount(old)``), the infectious mask
    and, given the ``degrees``, the ``(K,)`` frontier degree sums —
    O(entries), whatever N and E are.
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
    infectious[positions[flip]] = now
    if degrees is None:
        return
    deg = degrees[net_positions[flip]]
    signed = np.where(now, deg, -deg)
    if lanes is None:
        frontier_degree[0] += signed.sum()
    else:
        frontier_degree += np.bincount(lanes[flip], weights=signed,
                                       minlength=k)


class SharedNetwork:
    """One contact network as the engine reads it, held once per network.

    No tick writes any of it, so every lane on the network reads one:
    the network's edge columns, read in place (a mapped bundle's stay
    mapped; ``active`` is the base activity, which the kernels AND with
    each lane's suppression counts), its
    :class:`~repro.epihiper.interventions.IncidentEdges` CSR with the
    CSR's degree column, the mask of edges whose both contexts are
    *home* (the edges isolations keep), and, from its first dense tick
    on, the dense scan's doubled-edge lookups and boolean scratch
    (``tables``, ``scratch`` and ``live``, which
    :class:`~repro.epihiper.transmission.CandidateScan` builds).  The
    driver builds one per distinct network
    (:class:`~repro.epihiper.batch.BatchedSimulation`); a bare lane
    builds its own on first use (:attr:`Simulation.network`).  It lives
    as long as its lanes: the CSR is never cached per network (see
    :class:`~repro.epihiper.interventions.IncidentEdges`).
    """

    __slots__ = ("n_nodes", "n_edges", "source", "target", "duration",
                 "active", "incident", "home", "tables", "scratch", "live")

    def __init__(self, net: ContactNetwork) -> None:
        self.n_nodes, self.n_edges = net.n_nodes, net.n_edges
        self.source, self.target = net.source, net.target
        self.duration, self.active = net.duration, net.active
        self.incident = IncidentEdges(net.source, net.target, net.n_nodes)
        self.home = ((net.source_activity == HOME)
                     & (net.target_activity == HOME))
        self.tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.scratch: np.ndarray | None = None
        self.live: np.ndarray | None = None

    def non_home_edges_of(self, pids: np.ndarray) -> np.ndarray:
        """The incident edges of ``pids`` that are not home-home contacts
        (ascending, distinct): what an isolation or a masking order
        reaches."""
        rows = self.incident.edges_of(pids)
        return rows[~self.home[rows]]


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
    """One EpiHiper instance over one region's population and network: a
    lane of :class:`~repro.epihiper.batch.BatchedSimulation`, which
    advances it (:meth:`run` drives it as a batch of one)."""

    def __init__(
        self,
        model: DiseaseModel,
        pop: Population,
        net: ContactNetwork,
        *,
        seed: int = DEFAULT_SEED,
        interventions: list[Intervention] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if net.n_nodes != pop.size:
            raise ValueError("network and population sizes disagree")
        self.model = model
        self.pop = pop
        self.net = net
        self.rng = np.random.default_rng(seed)
        self.interventions = list(interventions or [])

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
        # kernel rule reads; the driver builds the CSR before the first
        # tick).
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

        # The network's own weight column until something asks for
        # ``edge_weight`` (see there); the tick reads whichever it is.
        self._weight = net.weight
        self.suppressor = EdgeSuppressor(net.n_edges)
        self._network: SharedNetwork | None = None
        self._mem_base = net.n_edges * EDGE_BYTES + pop.size * NODE_BYTES

        self.tick = 0
        self.recorder = TransitionRecorder()
        self._counts_history: list[np.ndarray] = []
        self._memory_history: list[int] = []
        # Telemetry: all work counters and phase timers live in the shared
        # registry under ``engine.*``; declared up front so snapshots carry
        # the full key set even before the first step.  The lane counts
        # work in plain ints (``_work``); the driver times the phases and
        # moves both into the registry at flush time.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        for name in ENGINE_COUNTERS:
            self.metrics.counter(f"engine.{name}")
        for name in ENGINE_TIMERS:
            self.metrics.declare(f"engine.{name}", TIMER)
        self._work = dict.fromkeys(ENGINE_COUNTERS, 0)

    # -- derived structures ----------------------------------------------------

    @property
    def network(self) -> SharedNetwork:
        """The read-only state of this lane's network: the driver's, which
        every lane on the network shares, or, on a bare lane, its own,
        built on first use; from then on the frontier degree sum is
        kept."""
        if self._network is None:
            self._network = SharedNetwork(self.net)
            self._track_degrees(self._network.incident.degrees)
        return self._network

    @property
    def incident(self) -> IncidentEdges:
        """The network's person -> incident-edge CSR (contact tracing,
        isolation, the frontier kernel)."""
        return self.network.incident

    def _track_degrees(self, degrees: np.ndarray) -> None:
        """Start keeping the frontier degree sum over ``degrees``."""
        self._degrees = degrees
        self._frontier_degree[...] = degrees[self._infectious].sum()

    @property
    def edge_weight(self) -> np.ndarray:
        """This lane's writable per-edge weights w_e (Table V's rw
        ``edge.weight``), float64.

        A lane reads the network's shared (possibly mapped, read-only)
        weight column until the first access here, which takes the
        lane's private float64 copy — 8 B per edge that only a lane that
        rescales weights (:func:`~repro.epihiper.npi.make_masking`) pays.
        Widening float32 to float64 is exact, so the copy changes no
        propensity.
        """
        if self._weight is self.net.weight:
            self._weight = self.net.weight.astype(np.float64)
        return self._weight

    @property
    def tick_weight(self) -> np.ndarray:
        """The weight column the tick reads: the network's shared one, or
        this lane's private copy once :attr:`edge_weight` has taken it."""
        return self._weight

    def private_weight(self) -> np.ndarray | None:
        """This lane's own weight copy, or ``None`` while it reads the
        network's column (a checkpoint carries only the former)."""
        return None if self._weight is self.net.weight else self._weight

    def share_weight(self) -> None:
        """Drop any private copy and read the network's column again."""
        self._weight = self.net.weight

    def current_state_counts(self) -> np.ndarray:
        """Census over states right now (a copy of the maintained row)."""
        return self._census.copy()

    def _sync_derived(self) -> None:
        """Recompute the census, infectious mask and frontier degree sum
        from ``health`` — at construction and after a checkpoint restore.
        Writes in place: batched lanes hold them as stack slices."""
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
    ) -> None:
        """Move distinct ``pids`` into ``codes`` now, with no infector:
        record, then schedule the next hop.  The lane's one entry outside
        the tick's kernels (seeding, interventions); the driver enters the
        transmissions and progressions it computes itself."""
        pids = np.asarray(pids, dtype=np.int64)
        if pids.size == 0:
            return
        codes = np.asarray(codes, dtype=np.int8)
        old = self.health[pids]
        self.health[pids] = codes
        count_entries(self.model, self._degrees, self._census[None],
                      self._infectious, self._frontier_degree, None,
                      pids, pids, old, codes)
        self.recorder.record(self.tick, pids, codes)
        self._work["transitions"] += pids.size
        schedule_entries(self.model, self.sched, pids, codes,
                         self.pop.age_group, self.rng, self.tick)

    def seed_infections(self, pids: np.ndarray) -> None:
        """Initialization: move ``pids`` into Exposed with no infector.

        Appendix D: "Initialization is a special case of an intervention
        where the trigger is omitted"; seeds become dendogram roots.
        """
        pids = np.asarray(pids, dtype=np.int64)
        code = self.model.code("Exposed")
        self.enter_state(pids, np.full(pids.size, code, dtype=np.int8))

    # -- per-lane tick phases (called by the driver) ------------------------

    def _run_interventions(self) -> None:
        """The intervention phase: evaluate every trigger in stack order,
        counting the interventions applied and the suppressor edge
        operations they made."""
        ops_before = self.suppressor.total_operations
        fired = 0
        for iv in self.interventions:
            if iv.maybe_apply(self):
                fired += 1
        self._work["interventions_fired"] += fired
        self._work["intervention_edge_ops"] += (
            self.suppressor.total_operations - ops_before)

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
        """Run ``n_days`` ticks as a one-lane
        :class:`~repro.epihiper.batch.BatchedSimulation` and return the
        result."""
        from .batch import BatchedSimulation

        return BatchedSimulation([self], metrics=self.metrics).run(n_days)[0]

    def _assemble_result(self) -> SimulationResult:
        """Freeze the ticks advanced so far into a :class:`SimulationResult`
        (the driver has flushed the lane's counters first)."""
        return SimulationResult(
            region_code=self.net.region_code,
            n_days=self.tick,
            log=self.recorder.finalize(),
            state_counts=np.vstack(self._counts_history),
            memory_series=np.asarray(self._memory_history, dtype=np.int64),
            metrics=MetricsRegistry().merge(self.metrics.dump("engine.")),
        )
