"""Intervention framework: triggers, action ensembles, and traits.

Appendix D: "An intervention comprises of a trigger and an action ensemble.
The action ensemble is only applied if the trigger evaluates to true."  The
trigger is a function of the system state (Table V); actions operate on a
target set of nodes or edges, optionally on a sampled subset, and may be
delayed.

Edge deactivation is implemented with a *suppression counter* per edge so
that overlapping interventions compose: an edge is active iff its base flag
is set and no intervention currently suppresses it.  Every suppression is
paired with a release, which lets timed isolations expire cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulation

#: A trigger: reads the simulation state, returns whether to fire this tick.
Trigger = Callable[["Simulation"], bool]

#: An action: mutates the simulation state (through the public ops below).
Action = Callable[["Simulation"], None]


@dataclass
class Intervention:
    """A named (trigger, action ensemble) pair evaluated every tick.

    Attributes:
        name: label used in run summaries and the cost model.
        trigger: predicate on the simulation state.
        action: applied whenever the trigger is true (and, if ``once``,
            not yet fired).
        once: fire at most one time.
    """

    name: str
    trigger: Trigger
    action: Action
    once: bool = False
    fired: int = field(default=0, init=False)

    def maybe_apply(self, sim: "Simulation") -> bool:
        """Evaluate the trigger; apply the action if it fires."""
        if self.once and self.fired:
            return False
        if not self.trigger(sim):
            return False
        self.action(sim)
        self.fired += 1
        return True


def at_tick(day: int) -> Trigger:
    """Trigger that fires exactly on tick ``day``."""
    return lambda sim: sim.tick == day


def between_ticks(start: int, end: int) -> Trigger:
    """Trigger active on every tick in ``[start, end)``."""
    return lambda sim: start <= sim.tick < end


def from_tick(day: int) -> Trigger:
    """Trigger active from ``day`` onward."""
    return lambda sim: sim.tick >= day


def when_variable_at_least(name: str, threshold: float) -> Trigger:
    """Trigger on a user-defined simulation variable (Table V ``variable``)."""
    return lambda sim: sim.variables.get(name, 0.0) >= threshold


def when_symptomatic_count_at_least(threshold: int) -> Trigger:
    """Trigger once the current symptomatic census reaches ``threshold``."""
    def trig(sim: "Simulation") -> bool:
        counts = sim.current_state_counts()
        return int(counts[sim.model.is_symptomatic].sum()) >= threshold
    return trig


# --- action-ensemble building blocks ----------------------------------------


def sample_subset(
    ids: np.ndarray, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample each element independently with probability ``fraction``.

    This is the "sampled subset" operation of the paper's action ensembles
    (compliance draws).  ``fraction`` outside [0, 1] raises.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if fraction >= 1.0:
        return ids
    if fraction <= 0.0 or ids.size == 0:
        return ids[:0]
    return ids[rng.random(ids.size) < fraction]


def _sorted_dedup(values: np.ndarray) -> np.ndarray:
    """Ascending dedup of 1-D integers; like np.unique but without its
    dispatch overhead (the frontier kernel's row dedup and the tracing
    gathers run it every tick)."""
    if values.size == 0:
        return values
    values = np.sort(values)
    keep = np.empty(values.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


@dataclass(slots=True)
class SuppressionHandle:
    """A release token for a set of suppressed edges."""

    edge_rows: np.ndarray
    released: bool = False


class EdgeSuppressor:
    """Reference-counted edge deactivation shared by all interventions."""

    def __init__(self, n_edges: int) -> None:
        self.count = np.zeros(n_edges, dtype=np.int16)
        self.total_operations = 0  #: edges touched, for the cost model
        self.n_suppressed = 0  #: edges with count > 0, kept incrementally

    def _apply(self, edge_rows: np.ndarray, sign: int) -> None:
        """Adjust counts on the touched rows only, tracking 0 <-> >0 flips."""
        rows, reps = np.unique(edge_rows, return_counts=True)
        old = self.count[rows]
        new = old + sign * reps
        if sign < 0 and new.size and new.min() < 0:
            raise RuntimeError("suppression count went negative")
        self.count[rows] = new
        self.n_suppressed += int(((old == 0) & (new > 0)).sum())
        self.n_suppressed -= int(((old > 0) & (new == 0)).sum())

    def suppress(self, edge_rows: np.ndarray) -> SuppressionHandle:
        """Deactivate ``edge_rows`` (idempotent per handle, composable)."""
        edge_rows = np.asarray(edge_rows)
        self._apply(edge_rows, 1)
        self.total_operations += int(edge_rows.size)
        return SuppressionHandle(edge_rows)

    def release(self, handle: SuppressionHandle) -> None:
        """Undo one suppression; edges with zero remaining count reactivate."""
        if handle.released:
            return
        self._apply(handle.edge_rows, -1)
        self.total_operations += int(handle.edge_rows.size)
        handle.released = True

    def active_mask(self, base_active: np.ndarray) -> np.ndarray:
        """Effective edge activity: base flag and no live suppression.

        The tick never builds this whole mask on a frontier tick: the
        transmission kernels read ``count`` and the base flags on the
        gathered rows only."""
        return base_active & (self.count == 0)


class IncidentEdges:
    """CSR-style person -> incident-edge-row index.

    Built lazily once per :class:`~repro.epihiper.engine.Simulation`, or
    once per batch group (a :class:`~repro.epihiper.batch.
    BatchedSimulation` shares one across its lanes) — not once per
    network: each solo run rebuilds it (32 B per edge, dropped with the
    engine).  Contact tracing (D1CT / D2CT), per-person isolation and
    the frontier transmission kernel need the edges touching a person;
    the CSR makes those operations O(degree).
    """

    def __init__(self, source: np.ndarray, target: np.ndarray, n_nodes: int) -> None:
        endpoints = np.concatenate([source, target])
        rows = np.concatenate([
            np.arange(source.shape[0], dtype=np.int64),
            np.arange(target.shape[0], dtype=np.int64),
        ])
        order = np.argsort(endpoints, kind="stable")
        self._rows = rows[order]
        counts = np.bincount(endpoints, minlength=n_nodes)
        self._offsets = np.concatenate([[0], np.cumsum(counts)])
        self._others = np.concatenate([target, source])[order]
        self._degrees: np.ndarray | None = None
        self._max_degree: float | None = None

    @property
    def degrees(self) -> np.ndarray:
        """Per-person incident-slot count as float64 (lazily built).

        The frontier-workload estimate over boolean infectious masks is
        one contraction against this column — exact for any realistic
        degree sum, and O(|V|) with no intermediate index array (see
        :func:`~repro.epihiper.transmission.frontier_workload`).
        """
        if self._degrees is None:
            self._degrees = np.diff(self._offsets).astype(np.float64)
        return self._degrees

    @property
    def max_degree(self) -> float:
        """Largest per-person incident-slot count (lazily cached).

        ``infectious_count * max_degree`` upper-bounds the frontier
        workload, letting the per-tick ``auto`` resolution skip the exact
        degree-sum dot product whenever one popcount already proves the
        frontier kernel is below the crossover.
        """
        if self._max_degree is None:
            deg = self.degrees
            self._max_degree = float(deg.max()) if deg.size else 0.0
        return self._max_degree

    def _gather_slots(self, pids: np.ndarray) -> np.ndarray:
        """Vectorised CSR slot gather: every slot of every pid, in pid order.

        Multi-range gather without a Python loop: repeat each pid's slice
        start over its length, then add a per-slice ramp built from one
        global arange minus the exclusive prefix sum of the lengths.
        """
        pids = np.asarray(pids, dtype=np.int64).ravel()
        if pids.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self._offsets[pids]
        counts = self._offsets[pids + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return shift + np.arange(total, dtype=np.int64)

    def degree_sum(self, pids: np.ndarray) -> int:
        """Total incident-edge slots of ``pids`` (frontier-gather workload)."""
        pids = np.asarray(pids, dtype=np.int64).ravel()
        if pids.size == 0:
            return 0
        return int((self._offsets[pids + 1] - self._offsets[pids]).sum())

    def edge_rows_of(self, pids: np.ndarray) -> np.ndarray:
        """Incident edge rows of ``pids``, with one entry per incidence.

        An edge whose both endpoints are in ``pids`` appears twice; callers
        wanting the deduplicated (and ascending) set apply ``np.unique``.
        """
        return self._rows[self._gather_slots(pids)]

    def edges_of(self, pids: np.ndarray) -> np.ndarray:
        """Unique edge rows incident to any of ``pids``."""
        rows = self.edge_rows_of(pids)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        return _sorted_dedup(rows)

    def neighbors_of(self, pids: np.ndarray) -> np.ndarray:
        """Unique neighbour ids of any of ``pids`` (excluding ``pids``)."""
        slots = self._gather_slots(pids)
        if slots.size == 0:
            return np.empty(0, dtype=np.int64)
        out = _sorted_dedup(self._others[slots])
        return np.setdiff1d(out, pids, assume_unique=False)
