"""The paper's non-pharmaceutical interventions (Section VI, Figure 7).

Implements the eight named NPIs whose runtime cost the paper measures:

- **VHI** — voluntary home isolation of symptomatic cases.
- **SC** — school closure (school and college contexts disabled).
- **SH** — stay-at-home order (compliant persons keep only home contacts).
- **RO** — partial reopening, extends SH (only a fraction of work /
  shopping / other contacts return).
- **TA** — testing and isolating asymptomatic cases, extends VHI.
- **PS** — pulsing shutdown (repeatedly alternates SH and RO).
- **D1CT** — distance-1 contact tracing and isolating.
- **D2CT** — distance-2 contact tracing and isolating.

Each NPI is an :class:`~repro.epihiper.interventions.Intervention` whose
action ensemble uses the suppression-counter machinery, so arbitrary
combinations compose (the paper's base case is VHI + SC + SH).
"""

from __future__ import annotations

import bisect
from operator import itemgetter

import numpy as np

from ..synthpop.activities import COLLEGE, OTHER, SCHOOL, SHOPPING, WORK
from .engine import Simulation
from .interventions import (
    Intervention,
    SuppressionHandle,
    _sorted_dedup,
    at_tick,
    from_tick,
    sample_subset,
)

#: Isolation length for case isolation and traced contacts.
DEFAULT_ISOLATION_DAYS: int = 14
#: Contact tracing: the chance a new symptomatic case is detected, and
#: the chance a traced contact complies.
CT_DETECTION_RATE: float = 0.5
CT_COMPLIANCE: float = 0.7
#: The Figure 7 scenarios' stay-home window and compliances.
SCENARIO_SH_START: int = 10
SCENARIO_SH_END: int = 80
SCENARIO_VHI_COMPLIANCE: float = 0.6
SCENARIO_SH_COMPLIANCE: float = 0.7
#: Pulsing shutdown: days on, then days off, per pulse.
PS_DAYS_ON: int = 14
PS_DAYS_OFF: int = 14

_TICK = itemgetter(0)


class _TimedReleases:
    """Shared bookkeeping: handles to release at future ticks.

    ``_due`` is a list of ``(tick, handle)`` kept sorted by tick (an
    isolation's release tick only grows, so an add is an append), so a
    tick with nothing due costs one comparison and a due one pops a prefix.
    """

    def __init__(self) -> None:
        self._due: list[tuple[int, SuppressionHandle]] = []

    def add(self, release_tick: int, handle: SuppressionHandle) -> None:
        if self._due and self._due[-1][0] > release_tick:
            bisect.insort(self._due, (release_tick, handle), key=_TICK)
        else:
            self._due.append((release_tick, handle))

    def release_due(self, sim: Simulation) -> None:
        if not self._due or self._due[0][0] > sim.tick:
            return
        n_due = bisect.bisect_right(self._due, sim.tick, key=_TICK)
        for _tick, handle in self._due[:n_due]:
            sim.suppressor.release(handle)
        del self._due[:n_due]


def _isolate(
    sim: Simulation, pids: np.ndarray, releases: _TimedReleases
) -> int:
    """Suppress the non-home incident edges of ``pids`` for
    :data:`DEFAULT_ISOLATION_DAYS` ticks.

    Returns the number of edges suppressed (work done, for the cost model).
    """
    if pids.size == 0:
        return 0
    rows = sim.network.non_home_edges_of(pids)
    handle = sim.suppressor.suppress(rows)
    releases.add(sim.tick + DEFAULT_ISOLATION_DAYS, handle)
    return int(rows.size)


class _NewEntrants:
    """Detects persons who entered a given state since the last check.

    ``_prev`` marks who held the state at the previous poll.  Only a
    person with a transition since then can differ, and the simulation's
    transition recorder — written where ``health`` changes — lists them:
    a poll reads those rows (from ``_seen`` on), not all of ``health``.
    Any superset of them gives the same answer, so a restored tracker
    starts from row 0 and its snapshot holds ``_prev`` alone.
    """

    def __init__(self, state_code: int) -> None:
        self.code = state_code
        self._prev: np.ndarray | None = None
        self._seen = 0  #: recorder rows already folded into ``_prev``

    def poll(self, sim: Simulation) -> np.ndarray:
        """Ascending ids of the persons in the state now who were not in
        it at the previous poll (everyone in it, at the first)."""
        if self._prev is None:
            self._prev = sim.health == self.code
            new = np.flatnonzero(self._prev)
        else:
            # ``moved`` may repeat a person (two transitions since the
            # last poll); both copies read the same flags.
            moved = sim.recorder.pids_since(self._seen)
            now = sim.health[moved] == self.code
            new = moved[now & ~self._prev[moved]]
            self._prev[moved] = now
            if new.size > 1:
                new = _sorted_dedup(new)
        self._seen = sim.recorder.n_rows
        return new


# --- VHI ---------------------------------------------------------------------


def make_vhi(compliance: float) -> Intervention:
    """Voluntary home isolation of symptomatic cases.

    Each tick, persons who newly became symptomatic comply with probability
    ``compliance``; compliant cases lose all non-home contacts for
    :data:`DEFAULT_ISOLATION_DAYS`.
    """
    releases = _TimedReleases()
    entrants: _NewEntrants | None = None

    def action(sim: Simulation) -> None:
        nonlocal entrants
        if entrants is None:
            entrants = _NewEntrants(sim.model.code("Symptomatic"))
        releases.release_due(sim)
        new = entrants.poll(sim)
        compliant = sample_subset(new, compliance, sim.rng)
        _isolate(sim, compliant, releases)

    return Intervention(
        name="VHI", trigger=from_tick(0), action=action)


# --- SC ----------------------------------------------------------------------


def make_sc(*, start: int = 0) -> Intervention:
    """School closure: all school and college context edges are disabled
    from ``start`` on.

    With 100%% compliance (as in case study 3: "assume 100% compliance on
    SC").
    """
    state: dict[str, SuppressionHandle | None] = {"handle": None}

    def action(sim: Simulation) -> None:
        if state["handle"] is None and sim.tick >= start:
            mask = (
                np.isin(sim.net.source_activity, (SCHOOL, COLLEGE))
                | np.isin(sim.net.target_activity, (SCHOOL, COLLEGE))
            )
            state["handle"] = sim.suppressor.suppress(np.flatnonzero(mask))

    return Intervention(name="SC", trigger=lambda sim: True, action=action)


# --- SH ----------------------------------------------------------------------


def make_sh(
    compliance: float, *, start: int = 0, end: int | None = None
) -> Intervention:
    """Stay-at-home order.

    At ``start``, a compliant fraction of all persons is sampled; their
    non-home contacts are disabled until ``end`` (or forever).
    """
    state: dict[str, SuppressionHandle | None] = {"handle": None}

    def action(sim: Simulation) -> None:
        if state["handle"] is None and sim.tick == start:
            everyone = np.arange(sim.pop.size, dtype=np.int64)
            compliant = sample_subset(everyone, compliance, sim.rng)
            rows = sim.network.non_home_edges_of(compliant)
            state["handle"] = sim.suppressor.suppress(rows)
        elif state["handle"] is not None and end is not None and sim.tick >= end:
            sim.suppressor.release(state["handle"])
            state["handle"] = None

    return Intervention(name="SH", trigger=lambda sim: True, action=action)


# --- RO ----------------------------------------------------------------------


def make_ro(reopen_level: float, *, start: int) -> Intervention:
    """Partial reopening (extends SH).

    From ``start``, only a ``reopen_level`` fraction of work / shopping /
    other contacts operate; the rest stay suppressed.  Typically paired with
    an SH whose ``end`` equals ``start``.
    """
    if not 0.0 <= reopen_level <= 1.0:
        raise ValueError("reopen_level must be in [0, 1]")
    state: dict[str, SuppressionHandle | None] = {"handle": None}

    def action(sim: Simulation) -> None:
        if state["handle"] is not None or sim.tick != start:
            return
        mask = (
            np.isin(sim.net.source_activity, (WORK, SHOPPING, OTHER))
            | np.isin(sim.net.target_activity, (WORK, SHOPPING, OTHER))
        )
        rows = np.flatnonzero(mask)
        closed = sample_subset(rows, 1.0 - reopen_level, sim.rng)
        state["handle"] = sim.suppressor.suppress(closed)

    return Intervention(name="RO", trigger=lambda sim: True, action=action)


# --- TA ----------------------------------------------------------------------


def make_ta(detection_rate: float) -> Intervention:
    """Testing and isolating asymptomatic cases (extends VHI).

    Each tick, currently asymptomatic persons are detected with probability
    ``detection_rate``; detected cases are isolated.
    """
    releases = _TimedReleases()
    tested: dict[str, np.ndarray | None] = {"done": None}

    def action(sim: Simulation) -> None:
        releases.release_due(sim)
        if tested["done"] is None:
            tested["done"] = np.zeros(sim.pop.size, dtype=bool)
        asympt = sim.health == sim.model.code("Asymptomatic")
        candidates = np.flatnonzero(asympt & ~tested["done"])
        detected = sample_subset(candidates, detection_rate, sim.rng)
        tested["done"][candidates] = True  # one test per episode
        _isolate(sim, detected, releases)

    return Intervention(
        name="TA", trigger=from_tick(0), action=action)


# --- PS ----------------------------------------------------------------------


def make_ps(
    compliance: float,
    *,
    start: int = 0,
) -> Intervention:
    """Pulsing shutdown: repeatedly alternates SH (on, :data:`PS_DAYS_ON`
    days) and reopening (off, :data:`PS_DAYS_OFF` days).

    During each on-phase a fresh compliant sample of the population is
    isolated; the off-phase releases them.  The resampling every pulse is
    what makes PS markedly more expensive than a single SH (Figure 7).
    """
    state: dict[str, SuppressionHandle | None] = {"handle": None}

    def action(sim: Simulation) -> None:
        t = sim.tick - start
        if t < 0:
            return
        phase = t % (PS_DAYS_ON + PS_DAYS_OFF)
        if phase == 0 and state["handle"] is None:
            everyone = np.arange(sim.pop.size, dtype=np.int64)
            compliant = sample_subset(everyone, compliance, sim.rng)
            rows = sim.network.non_home_edges_of(compliant)
            state["handle"] = sim.suppressor.suppress(rows)
        elif phase == PS_DAYS_ON and state["handle"] is not None:
            sim.suppressor.release(state["handle"])
            state["handle"] = None

    return Intervention(name="PS", trigger=lambda sim: True, action=action)


# --- contact tracing -----------------------------------------------------------


def make_contact_tracing(
    distance: int,
    detection_rate: float,
    compliance: float,
) -> Intervention:
    """Distance-``d`` contact tracing and isolating (D1CT / D2CT).

    Each tick: newly symptomatic persons are detected with probability
    ``detection_rate``; their contacts out to graph distance ``distance``
    are traced; traced contacts comply with probability ``compliance`` and
    are isolated together with the index case.  Distance-2 tracing touches
    many more nodes and edges, which is why the paper measures it at almost
    +300%% runtime over the base case.
    """
    if distance not in (1, 2):
        raise ValueError("only distance 1 and 2 tracing are defined")
    releases = _TimedReleases()
    entrants: _NewEntrants | None = None

    def action(sim: Simulation) -> None:
        nonlocal entrants
        if entrants is None:
            entrants = _NewEntrants(sim.model.code("Symptomatic"))
        releases.release_due(sim)
        new = entrants.poll(sim)
        detected = sample_subset(new, detection_rate, sim.rng)
        if detected.size == 0:
            return
        traced = sim.incident.neighbors_of(detected)
        if distance == 2 and traced.size:
            ring2 = sim.incident.neighbors_of(traced)
            traced = np.union1d(traced, ring2)
            traced = np.setdiff1d(traced, detected)
        compliant = sample_subset(traced, compliance, sim.rng)
        to_isolate = np.union1d(detected, compliant)
        _isolate(sim, to_isolate, releases)

    return Intervention(
        name=f"D{distance}CT",
        trigger=from_tick(0),
        action=action,
    )


def make_d1ct(compliance: float = CT_COMPLIANCE) -> Intervention:
    """Distance-1 contact tracing, detecting :data:`CT_DETECTION_RATE`."""
    return make_contact_tracing(1, CT_DETECTION_RATE, compliance)


def make_d2ct() -> Intervention:
    """Distance-2 contact tracing at :data:`CT_DETECTION_RATE` and
    :data:`CT_COMPLIANCE`."""
    return make_contact_tracing(2, CT_DETECTION_RATE, CT_COMPLIANCE)


#: Scenario presets used by Figure 7 (bottom): each entry extends the base
#: case VHI + SC + SH with additional interventions.
def scenario_interventions(
    name: str,
) -> list[Intervention]:
    """Build the intervention stack for a named Figure 7 scenario.

    ``base`` is VHI + SC + SH; the other names add one intervention each:
    ``RO``, ``TA``, ``PS``, ``D1CT``, ``D2CT``.
    """
    base = [
        make_vhi(SCENARIO_VHI_COMPLIANCE),
        make_sc(start=SCENARIO_SH_START),
        make_sh(SCENARIO_SH_COMPLIANCE, start=SCENARIO_SH_START,
                end=SCENARIO_SH_END),
    ]
    extras = {
        "base": [],
        "RO": [make_ro(0.5, start=SCENARIO_SH_END)],
        "TA": [make_ta(0.3)],
        "PS": [make_ps(SCENARIO_SH_COMPLIANCE, start=SCENARIO_SH_START)],
        "D1CT": [make_d1ct()],
        "D2CT": [make_d2ct()],
    }
    if name not in extras:
        raise KeyError(f"unknown scenario {name!r}; choose from {sorted(extras)}")
    return base + extras[name]


# --- vaccination ----------------------------------------------------------------


def make_vaccination(
    coverage: float,
    efficacy: float,
    *,
    day: int = 0,
    min_age: int = 0,
) -> Intervention:
    """Vaccination campaign (Appendix A: "vaccinating nodes").

    On ``day``, a ``coverage`` fraction of still-susceptible persons aged
    ``min_age``+ is vaccinated.  Successful vaccinations (probability
    ``efficacy``) zero the node's susceptibility trait; failures move the
    person into the RX_Failure state of the Figure 12 model, which remains
    fully susceptible (Table IV).
    """
    if not 0.0 <= efficacy <= 1.0:
        raise ValueError("efficacy must be in [0, 1]")

    def action(sim: Simulation) -> None:
        sus_code = sim.model.code("Susceptible")
        eligible = np.flatnonzero(
            (sim.health == sus_code) & (sim.pop.age >= min_age))
        vaccinated = sample_subset(eligible, coverage, sim.rng)
        if vaccinated.size == 0:
            return
        success = sim.rng.random(vaccinated.size) < efficacy
        protected = vaccinated[success]
        failed = vaccinated[~success]
        sim.node_susceptibility[protected] = 0.0
        if failed.size:
            rx_code = sim.model.code("RX_Failure")
            sim.enter_state(
                failed, np.full(failed.size, rx_code, dtype=np.int8))
        sim.variables["vaccinated"] = (
            sim.variables.get("vaccinated", 0.0) + float(vaccinated.size))

    return Intervention(name="VAX", trigger=at_tick(day),
                        action=action, once=True)


# --- masking -------------------------------------------------------------------


def make_masking(
    compliance: float,
    *,
    weight_factor: float = 0.4,
    start: int = 0,
    end: int | None = None,
) -> Intervention:
    """Mask mandate: scales contact-edge weights (Table V: ``edge.weight``
    is a read-write system-state value interventions may modify).

    At ``start``, a compliant fraction of persons is sampled; every
    non-home edge with at least one compliant endpoint has its weight
    multiplied by ``weight_factor`` (masks reduce per-contact transmission
    in Eq. 1 without removing the contact).  Weights are restored at
    ``end``.
    """
    if weight_factor < 0:
        raise ValueError("weight_factor must be non-negative")
    state: dict[str, np.ndarray | None] = {"rows": None}

    def action(sim: Simulation) -> None:
        if state["rows"] is None and sim.tick == start:
            everyone = np.arange(sim.pop.size, dtype=np.int64)
            compliant = sample_subset(everyone, compliance, sim.rng)
            rows = sim.network.non_home_edges_of(compliant)
            sim.edge_weight[rows] *= weight_factor
            state["rows"] = rows
            sim.suppressor.total_operations += int(rows.size)
        elif state["rows"] is not None and end is not None and sim.tick >= end:
            sim.edge_weight[state["rows"]] /= weight_factor
            sim.suppressor.total_operations += int(state["rows"].size)
            state["rows"] = None

    return Intervention(name="MASK", trigger=lambda sim: True,
                        action=action)
