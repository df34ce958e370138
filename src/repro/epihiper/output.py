"""Simulation output: per-transition logs and dendograms.

EpiHiper writes one line per state transition: the tick, the person id, the
state entered, and the id of the person who caused it (for transmissions) or
-1 (for progressions).  Dendograms — transmission trees rooted at the initial
infections — are recovered from that log (Section III, "Output data").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..params import BYTES_PER_TRANSITION


class TransitionRecorder:
    """Append-only, chunked recorder for transition events.

    Python-list appends of numpy chunks avoid quadratic reallocation; the
    arrays are concatenated once at :meth:`finalize`.
    """

    def __init__(self) -> None:
        self._ticks: list[np.ndarray] = []
        self._pids: list[np.ndarray] = []
        self._states: list[np.ndarray] = []
        self._infectors: list[np.ndarray] = []
        self.n_rows = 0  #: transitions recorded so far

    def record(
        self,
        tick: int,
        pids: np.ndarray,
        states: np.ndarray,
        infectors: np.ndarray | None = None,
    ) -> None:
        """Record that ``pids`` entered ``states`` at ``tick``.

        ``infectors`` defaults to -1 (progression events).
        """
        n = pids.shape[0]
        if n == 0:
            return
        self.n_rows += n
        self._ticks.append(np.full(n, tick, dtype=np.int32))
        self._pids.append(np.asarray(pids, dtype=np.int64))
        self._states.append(np.asarray(states, dtype=np.int8))
        if infectors is None:
            self._infectors.append(np.full(n, -1, dtype=np.int64))
        else:
            self._infectors.append(np.asarray(infectors, dtype=np.int64))

    def record_chunks(
        self,
        ticks: np.ndarray,
        pids: np.ndarray,
        states: np.ndarray,
        infectors: np.ndarray,
    ) -> None:
        """Append pre-built column chunks without conversion.

        The batched driver assembles the columns of several lanes in one
        pass and hands each lane its slice; callers own the dtypes
        (int32 / int64 / int8 / int64, matching :meth:`record`).
        """
        if pids.shape[0] == 0:
            return
        self.n_rows += pids.shape[0]
        self._ticks.append(ticks)
        self._pids.append(pids)
        self._states.append(states)
        self._infectors.append(infectors)

    def pids_since(self, start: int) -> np.ndarray:
        """Person ids of the transitions recorded after the first
        ``start`` rows, in record order — O(those rows), read from the
        newest chunks backwards."""
        need = self.n_rows - start
        parts = []
        i = len(self._pids)
        while need > 0:
            i -= 1
            chunk = self._pids[i]
            if chunk.shape[0] > need:
                chunk = chunk[-need:]
            parts.append(chunk)
            need -= chunk.shape[0]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts[::-1])

    def finalize(self) -> "TransitionLog":
        """Concatenate all chunks into an immutable :class:`TransitionLog`."""
        if not self._ticks:
            return TransitionLog(
                np.empty(0, np.int32), np.empty(0, np.int64),
                np.empty(0, np.int8), np.empty(0, np.int64))
        return TransitionLog(
            tick=np.concatenate(self._ticks),
            pid=np.concatenate(self._pids),
            state=np.concatenate(self._states),
            infector=np.concatenate(self._infectors),
        )


@dataclass(frozen=True, slots=True)
class TransitionLog:
    """Immutable columnar transition log (one row per state change)."""

    tick: np.ndarray  #: int32
    pid: np.ndarray  #: int64
    state: np.ndarray  #: int8 state entered
    infector: np.ndarray  #: int64 causing person, or -1 for progressions

    @property
    def size(self) -> int:
        """Number of transition events."""
        return int(self.tick.shape[0])

    @property
    def raw_bytes(self) -> int:
        """Paper-format output size of this log (16 bytes per line)."""
        return self.size * BYTES_PER_TRANSITION

    def transmissions(self) -> np.ndarray:
        """Row indices of transmission (infector >= 0) events."""
        return np.flatnonzero(self.infector >= 0)

    def entering(self, state_code: int) -> np.ndarray:
        """Row indices of events entering ``state_code``."""
        return np.flatnonzero(self.state == state_code)


def transmission_forest(log: TransitionLog) -> dict[int, int]:
    """Child -> parent map of the transmission forest (dendograms).

    Seed infections (introduced by initialization, infector == -1 on their
    exposure event) become roots and are absent from the map.
    """
    rows = log.transmissions()
    return dict(zip(log.pid[rows].tolist(), log.infector[rows].tolist()))


def dendogram_roots(log: TransitionLog, exposed_code: int) -> np.ndarray:
    """Person ids of the initial infections (roots of the dendograms)."""
    mask = (log.state == exposed_code) & (log.infector < 0)
    return np.unique(log.pid[mask])


def dendogram_sizes(log: TransitionLog, exposed_code: int) -> dict[int, int]:
    """Mapping root person id -> total size of its transmission tree.

    Uses path compression over the child->parent forest; total sizes sum to
    the number of ever-infected persons.
    """
    parent = transmission_forest(log)
    roots = set(dendogram_roots(log, exposed_code).tolist())
    sizes = {r: 1 for r in roots}
    cache: dict[int, int] = {r: r for r in roots}

    def find_root(p: int) -> int:
        path = []
        while p not in cache:
            path.append(p)
            p = parent[p]
        root = cache[p]
        for q in path:
            cache[q] = root
        return root

    for child in parent:
        sizes[find_root(child)] += 1
    return sizes


def max_generation(log: TransitionLog, exposed_code: int) -> int:
    """Depth of the deepest transmission chain (0 for seed-only outbreaks)."""
    parent = transmission_forest(log)
    depth: dict[int, int] = {}

    def d(p: int) -> int:
        if p not in parent:
            return 0
        if p in depth:
            return depth[p]
        depth[p] = 1 + d(parent[p])
        return depth[p]

    return max((d(p) for p in parent), default=0)
