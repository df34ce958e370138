"""Disease-model container: states, progressions, and transmissions.

A :class:`DiseaseModel` bundles the PTTS of Appendix D: a set of
:class:`~repro.epihiper.states.HealthState`, age-stratified progression
edges (probability + dwell time per Table III), and transmission rules
(susceptible state x infectious state -> exposed state, with a rate
omega per Eq. 1).  Models are specified independently of the population
and network, exactly as in EpiHiper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DwellTime, HealthState

#: Number of age groups the progression probabilities are stratified by.
N_AGE_GROUPS: int = 5


@dataclass(frozen=True)
class Progression:
    """One directed PTTS edge ``src -> dst``.

    ``prob`` holds one probability per age group (a scalar in Table III
    means "applies to all age groups").
    """

    src: str
    dst: str
    prob: tuple[float, ...]  #: length N_AGE_GROUPS
    dwell: DwellTime

    def __post_init__(self) -> None:
        if len(self.prob) != N_AGE_GROUPS:
            raise ValueError(
                f"{self.src}->{self.dst}: need {N_AGE_GROUPS} probabilities"
            )
        if any(p < 0 or p > 1 for p in self.prob):
            raise ValueError(f"{self.src}->{self.dst}: probability out of range")


def uniform(p: float) -> tuple[float, ...]:
    """Expand a single Table III value to all age groups."""
    return (p,) * N_AGE_GROUPS


@dataclass(frozen=True)
class Transmission:
    """A transmission rule T_{i,j,k} (Appendix D).

    A contact between a person in susceptible state ``susceptible`` and one
    in infectious state ``infectious`` may move the former into ``exposed``
    with rate ``omega`` (the transmission rate omega(T_{i,j,k}) of Eq. 1,
    scaled globally by the model's transmissibility).
    """

    susceptible: str
    infectious: str
    exposed: str
    omega: float = 1.0


class DiseaseModelError(ValueError):
    """Raised when a disease model is structurally invalid."""


class DiseaseModel:
    """A validated PTTS disease model with fast array lookups.

    After construction the model exposes integer state codes and dense
    per-state arrays (infectivity, susceptibility, flags) that the simulation
    engine indexes with the population's health-state vector — the layout
    that keeps the engine fully vectorised.
    """

    def __init__(
        self,
        name: str,
        states: list[HealthState],
        progressions: list[Progression],
        transmissions: list[Transmission],
        transmissibility: float = 1.0,
    ) -> None:
        self.name = name
        self.states = list(states)
        self.progressions = list(progressions)
        self.transmissions = list(transmissions)
        self.transmissibility = float(transmissibility)

        self.index: dict[str, int] = {s.name: i for i, s in enumerate(states)}
        if len(self.index) != len(states):
            raise DiseaseModelError("duplicate state names")

        self._validate()

        n = len(states)
        self.infectivity = np.asarray(
            [s.infectivity for s in states], dtype=np.float64)
        self.susceptibility = np.asarray(
            [s.susceptibility for s in states], dtype=np.float64)
        self.is_infectious = self.infectivity > 0
        self.is_susceptible = self.susceptibility > 0
        self.is_symptomatic = np.asarray(
            [s.symptomatic for s in states], dtype=bool)
        self.is_hospitalized = np.asarray(
            [s.hospitalized for s in states], dtype=bool)
        self.is_ventilated = np.asarray(
            [s.ventilated for s in states], dtype=bool)
        self.is_deceased = np.asarray(
            [s.deceased for s in states], dtype=bool)

        # Per-state outgoing edges, as (dst codes, (n_out x n_age) probs),
        # plus the column-wise cumulative probabilities the scheduler's
        # inverse-cdf edge choice uses (precomputed here because cumsum of
        # a column equals the column of the cumsum — gathering age columns
        # out of this table is bit-identical to cumsumming after the
        # gather, at none of the per-call cost).
        self.out_edges: dict[int, tuple[np.ndarray, np.ndarray, list[DwellTime]]] = {}
        self.out_cum: dict[int, np.ndarray] = {}
        #: ``out_cum`` transposed into plain-python rows (``[age][edge]``)
        #: plus the destination codes as python ints — the scalar
        #: small-batch scheduler walks these without numpy scalar boxing.
        self.out_cum_age: dict[int, list[list[float]]] = {}
        self.out_dsts: dict[int, list[int]] = {}
        for code in range(n):
            outs = [p for p in progressions if self.index[p.src] == code]
            if not outs:
                continue
            dsts = np.asarray([self.index[p.dst] for p in outs], np.int8)
            probs = np.asarray([p.prob for p in outs], np.float64)
            self.out_edges[code] = (dsts, probs, [p.dwell for p in outs])
            self.out_cum[code] = np.cumsum(probs, axis=0)
            self.out_cum_age[code] = self.out_cum[code].T.tolist()
            self.out_dsts[code] = dsts.tolist()

        # Exposure map: susceptible-state code -> exposed-state code, and the
        # per-(sus, inf) omega matrix used by the transmission kernel.
        self.exposed_of = np.full(n, -1, dtype=np.int8)
        self.omega = np.zeros((n, n), dtype=np.float64)
        for t in transmissions:
            s, i, e = (self.index[t.susceptible], self.index[t.infectious],
                       self.index[t.exposed])
            self.exposed_of[s] = e
            self.omega[s, i] = t.omega

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        for p in self.progressions:
            for end in (p.src, p.dst):
                if end not in self.index:
                    raise DiseaseModelError(f"unknown state {end!r}")
        for t in self.transmissions:
            for end in (t.susceptible, t.infectious, t.exposed):
                if end not in self.index:
                    raise DiseaseModelError(f"unknown state {end!r}")
            if not self.states[self.index[t.susceptible]].susceptible:
                raise DiseaseModelError(
                    f"{t.susceptible} has zero susceptibility but is the "
                    "susceptible side of a transmission")
            if not self.states[self.index[t.infectious]].infectious:
                raise DiseaseModelError(
                    f"{t.infectious} has zero infectivity but is the "
                    "infectious side of a transmission")

        # Appendix D: out-probabilities of every state must sum to 1 (or 0
        # for terminal states), per age group.
        sums = np.zeros((len(self.states), N_AGE_GROUPS))
        for p in self.progressions:
            sums[self.index[p.src]] += np.asarray(p.prob)
        for i, s in enumerate(self.states):
            row = sums[i]
            ok = np.allclose(row, 1.0, atol=1e-9) or np.allclose(row, 0.0)
            if not ok:
                raise DiseaseModelError(
                    f"state {s.name}: outgoing probabilities sum to {row}, "
                    "must be 1 or 0 for every age group")

    # -- queries --------------------------------------------------------------

    @property
    def n_states(self) -> int:
        """Number of health states."""
        return len(self.states)

    def code(self, name: str) -> int:
        """Integer code of state ``name``."""
        return self.index[name]

    def expected_path_lengths(self) -> dict[str, float]:
        """Expected ticks from each state to absorption (age-group mean).

        Computed by solving the linear system of the embedded Markov chain;
        useful for sanity-checking model edits against Table III.
        """
        n = self.n_states
        probs = np.zeros((n, n))
        holding = np.zeros(n)
        for code, (dsts, pmat, dwells) in self.out_edges.items():
            mean_p = pmat.mean(axis=1)
            for k, dst in enumerate(dsts):
                probs[code, dst] += mean_p[k]
                holding[code] += mean_p[k] * dwells[k].mean()
        # t = holding + P t  ->  (I - P) t = holding
        t = np.linalg.solve(np.eye(n) - probs, holding)
        return {s.name: float(t[i]) for i, s in enumerate(self.states)}
