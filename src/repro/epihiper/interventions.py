"""Intervention framework: triggers, action ensembles, and traits.

Appendix D: "An intervention comprises of a trigger and an action ensemble.
The action ensemble is only applied if the trigger evaluates to true."  The
trigger is a function of the system state (Table V); actions operate on a
target set of nodes or edges, optionally on a sampled subset, and may be
delayed.

Edge deactivation is implemented with a *suppression counter* per edge so
that overlapping interventions compose: an edge is active iff its
network's base flag is set and no intervention currently suppresses it
(the transmission kernels read both on the edges they evaluate).  Every
suppression is paired with a release, which lets timed isolations expire
cleanly.
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


def from_tick(day: int) -> Trigger:
    """Trigger active from ``day`` onward."""
    return lambda sim: sim.tick >= day


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
    """A release token for a set of suppressed edges.

    ``edge_rows`` are distinct (see :meth:`EdgeSuppressor.suppress`):
    releasing steps each row's count back down by exactly one.
    """

    edge_rows: np.ndarray
    released: bool = False


class EdgeSuppressor:
    """Reference-counted edge deactivation shared by all interventions."""

    def __init__(self, n_edges: int) -> None:
        self.count = np.zeros(n_edges, dtype=np.int16)
        self.total_operations = 0  #: edges touched, for the cost model
        self.n_suppressed = 0  #: edges with count > 0, kept incrementally

    def _apply(self, edge_rows: np.ndarray, sign: int) -> None:
        """Step the counts of the (distinct) touched rows by ``sign``,
        counting the rows that flip between 0 and 1."""
        old = self.count[edge_rows]
        if sign < 0 and old.size and old.min() <= 0:
            raise RuntimeError("suppression count went negative")
        self.count[edge_rows] = old + sign
        flips = np.count_nonzero(old == (0 if sign > 0 else 1))
        self.n_suppressed += sign * flips

    def suppress(self, edge_rows: np.ndarray) -> SuppressionHandle:
        """Deactivate ``edge_rows`` (idempotent per handle, composable).

        ``edge_rows`` must be distinct — a ``flatnonzero`` or
        :meth:`IncidentEdges.edges_of` result, say: each row's count steps
        by one, so the update is O(rows) with no dedup.
        """
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


#: Most edges :class:`IncidentEdges` takes: its rows hold edge numbers
#: as int32 (the 2E slot positions are int64).
_MAX_EDGES = np.iinfo(np.int32).max


class IncidentEdges:
    """CSR-style person -> incident-edge-row index.

    Built once per network of a driver, in the network's
    :class:`~repro.epihiper.engine.SharedNetwork` that every lane on the
    network reads (a bare :class:`~repro.epihiper.engine.Simulation`
    builds its own on first use), and dropped with the driver and its
    lanes.  It holds 16 B per edge (int32 edge rows and neighbour ids
    over the 2E incidences, given the bundle's int32 ids) and 16 B per
    person (the int64 offsets and the float64 degree column).  It is not
    cached per network beyond its lanes: kept for all 17 regions of a
    national sweep at 1e-3 it would hold ≈ 8.8 MiB, ≈ +12 % of that
    sweep's peak RSS, so the build is made cheap instead.  Contact tracing (D1CT / D2CT),
    per-person isolation and the frontier transmission kernel need the
    edges touching a person; the CSR makes those operations O(degree).

    The order of the rows inside one person's bucket is unspecified:
    every reader sort-dedups its gather (:meth:`edges_of`,
    :meth:`neighbors_of`) or sums counts (:attr:`degrees`).  Node ids must be below ``n_nodes``.  Rows and
    neighbour ids are stored narrow and widened to ``intp`` where they
    are gathered, once: numpy re-casts a non-``intp`` index array on
    every use.
    """

    def __init__(self, source: np.ndarray, target: np.ndarray, n_nodes: int) -> None:
        n_edges = source.shape[0]
        if n_edges > _MAX_EDGES:
            raise ValueError(f"{n_edges} edges overflow int32 edge rows")
        out_deg = np.bincount(source, minlength=n_nodes)
        in_deg = np.bincount(target, minlength=n_nodes)
        out_through, in_through = np.cumsum(out_deg), np.cumsum(in_deg)
        self._offsets = np.zeros(n_nodes + 1, dtype=np.int64)
        np.add(out_through, in_through, out=self._offsets[1:])
        self._rows = np.empty(2 * n_edges, dtype=np.int32)
        self._others = np.empty(2 * n_edges,
                                dtype=np.result_type(source, target))
        # A person's bucket holds its rows as source, then as target.  The
        # i-th edge in endpoint order lands in slot i plus its bucket's
        # shift: the slots of the other endpoint kind placed before it.
        ramp = np.arange(n_edges, dtype=np.int64)
        for ends, far, deg, shift, kind in (
            # ``source`` arrives sorted, so the stable sort is linear.
            (source, target, out_deg, in_through - in_deg, "stable"),
            (target, source, in_deg, out_through, None),
        ):
            order = np.argsort(ends, kind=kind)
            slots = ramp + np.repeat(shift, deg)
            self._rows[slots] = order
            self._others[slots] = far[order]
        self._degrees: np.ndarray | None = None

    @property
    def degrees(self) -> np.ndarray:
        """Per-person incident-slot count as float64 (lazily built): the
        column each lane's frontier degree sum is kept over
        (:func:`~repro.epihiper.engine.count_entries`).  Degree sums are
        integers far below 2**53, so float sums of it are exact."""
        if self._degrees is None:
            self._degrees = np.diff(self._offsets).astype(np.float64)
        return self._degrees

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

    def edges_of(self, pids: np.ndarray) -> np.ndarray:
        """Unique edge rows incident to any of ``pids`` (ascending)."""
        rows = self._rows[self._gather_slots(pids)]
        return _sorted_dedup(rows).astype(np.intp)

    def neighbors_of(self, pids: np.ndarray) -> np.ndarray:
        """Unique neighbour ids of any of ``pids`` (excluding ``pids``)."""
        out = _sorted_dedup(self._others[self._gather_slots(pids)])
        return np.setdiff1d(out.astype(np.intp), pids, assume_unique=False)
