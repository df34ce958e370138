"""The emulator: output basis + per-coefficient GPs over the corpus.

The LLNL surrogate-calibration line of work (arXiv:2010.06558) showed
agent-based epidemic outputs are cheaply emulable; the GPMSA machinery
already in :mod:`repro.calibration` is the natural first model.  A
trained :class:`SurrogateModel` is:

- a :class:`FeatureSpace` mapping raw feature vectors onto the unit cube
  (constant corpus dimensions are excluded from the GP input but still
  pin the model's validity hull — a request that moves a dimension the
  corpus never varied is out-of-distribution by construction);
- an :class:`~repro.calibration.basis.OutputBasis` over the trajectory
  ensemble plus one :class:`~repro.calibration.gp.GPEmulator` per basis
  coefficient (and one more for the scalar attack rate);
- provenance: featurization version + code salt, train-set digest,
  training seed — enough to decide staleness and to refuse serving
  across incompatible code versions.

Predictions reconstruct the full trajectory with a per-day predictive
standard deviation (GP coefficient variance pushed through the basis,
plus the basis truncation term), which is what the serving tier gates on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..calibration.basis import DEFAULT_P_ETA, OutputBasis, fit_basis
from ..calibration.gp import GPEmulator, fit_gp
from .corpus import Corpus

#: Key namespace for serialized models in the CAS.  Bump when the
#: payload layout changes.
MODEL_NAMESPACE: str = "surrogate-model/v1"

#: Treat a feature dimension as constant below this corpus range.
_CONST_EPS: float = 1e-12

#: Half-width multiplier of the ~95% uncertainty band.
BAND_Z: float = 1.96


@dataclass(frozen=True)
class FeatureSpace:
    """Observed corpus bounds per feature: unit-cube map + validity hull.

    Attributes:
        lo: ``(d,)`` per-feature corpus minima.
        hi: ``(d,)`` per-feature corpus maxima.
    """

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "FeatureSpace":
        """Bounds of an ``(n, d)`` corpus feature matrix."""
        f = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if f.shape[0] < 1:
            raise ValueError("cannot fit a feature space to no rows")
        return cls(lo=f.min(axis=0), hi=f.max(axis=0))

    @property
    def active(self) -> np.ndarray:
        """Boolean mask of dimensions the corpus actually varies."""
        return (self.hi - self.lo) > _CONST_EPS

    @property
    def d_active(self) -> int:
        """Number of varying (GP input) dimensions."""
        return int(self.active.sum())

    def to_unit(self, features: np.ndarray) -> np.ndarray:
        """Map raw rows onto the unit cube over the active dimensions."""
        f = np.atleast_2d(np.asarray(features, dtype=np.float64))
        act = self.active
        span = self.hi[act] - self.lo[act]
        return (f[:, act] - self.lo[act]) / span

    def contains(self, features: np.ndarray, *, pad: float = 0.0) -> bool:
        """Whether one raw feature vector lies inside the corpus hull.

        Active dimensions may extend ``pad`` fractions of their range
        beyond the observed bounds (mild extrapolation the GP variance
        still prices); constant dimensions must match exactly — the
        corpus carries no information about moving them.
        """
        f = np.asarray(features, dtype=np.float64).ravel()
        act = self.active
        span = self.hi - self.lo
        tol = np.where(act, pad * span, _CONST_EPS)
        return bool(np.all(f >= self.lo - tol)
                    and np.all(f <= self.hi + tol))


@dataclass(frozen=True)
class SurrogatePrediction:
    """One emulated scenario answer with uncertainty.

    Attributes:
        mean: ``(T + 1,)`` predicted confirmed-case trajectory.
        sd: ``(T + 1,)`` predictive standard deviation per day.
        attack_rate: predicted scalar attack rate.
        attack_sd: its predictive standard deviation.
        in_hull: whether the request lay inside the training hull.
    """

    mean: np.ndarray
    sd: np.ndarray
    attack_rate: float
    attack_sd: float
    in_hull: bool

    @property
    def rtol(self) -> float:
        """Relative predicted uncertainty: mean band sd over peak signal.

        The serving gate's confidence score — dimensionless, ~0 at a
        well-covered scenario, growing as the request leaves the corpus.
        """
        peak = float(np.max(np.abs(self.mean)))
        return float(np.mean(self.sd) / max(peak, 1e-9))

    def bands(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` trajectory band at :data:`BAND_Z` standard deviations
        (cumulative counts: the lower band is clipped at zero)."""
        return (np.maximum(self.mean - BAND_Z * self.sd, 0.0),
                self.mean + BAND_Z * self.sd)


@dataclass(frozen=True)
class SurrogateModel:
    """A trained, serialisable emulator over the run corpus.

    Attributes:
        space: feature bounds (unit-cube map + hull).
        basis: output eigenbasis of the training trajectories.
        gps: one GP per retained basis coefficient.
        attack_gp: GP over the scalar attack rate.
        names: feature vocabulary the model was trained under.
        n_days: trajectory horizon the model answers for.
        version: ``features+salt`` string of the training corpus.
        train_digest: :meth:`~repro.surrogate.corpus.Corpus.digest` of
            the training set.
        n_train: training-set size (staleness accounting).
        seed: training seed (fit reproducibility).
    """

    space: FeatureSpace
    basis: OutputBasis
    gps: tuple[GPEmulator, ...]
    attack_gp: GPEmulator
    names: tuple[str, ...]
    n_days: int
    version: str
    train_digest: str
    n_train: int
    seed: int

    def model_key(self) -> str:
        """Content key of this model in the CAS (its own key family).

        Deterministic in (namespace, corpus version, train digest,
        basis size, seed): retraining on an unchanged corpus republishes
        the same key.
        """
        parts = [MODEL_NAMESPACE, self.version, self.train_digest,
                 f"p={self.basis.p}", f"seed={self.seed}"]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    # -- prediction ------------------------------------------------------------

    def predict_features(self, features: np.ndarray) -> SurrogatePrediction:
        """Emulate one raw feature vector (see
        :func:`~repro.surrogate.corpus.featurize_spec`)."""
        f = np.asarray(features, dtype=np.float64).ravel()
        x = self.space.to_unit(f[None, :])
        w_mean = np.empty(len(self.gps))
        w_var = np.empty(len(self.gps))
        for k, gp in enumerate(self.gps):
            mean_k, var_k = gp.predict(x)
            w_mean[k] = mean_k[0]
            w_var[k] = var_k[0]
        basis = self.basis
        mean = basis.reconstruct(w_mean[None, :])[0]
        # Coefficient GPs are independent, so trajectory variance is the
        # basis-weighted sum plus the truncation term, all in output units.
        var = ((basis.phi ** 2) @ w_var + basis.truncation_sd ** 2)
        sd = np.sqrt(var) * basis.scale
        ar_mean, ar_var = self.attack_gp.predict(x)
        return SurrogatePrediction(
            mean=np.maximum(mean, 0.0),
            sd=sd,
            attack_rate=float(np.clip(ar_mean[0], 0.0, 1.0)),
            attack_sd=float(np.sqrt(ar_var[0])),
            in_hull=self.space.contains(f),
        )

    # -- serialization ---------------------------------------------------------

    def to_payload(self) -> dict[str, np.ndarray]:
        """Flatten the model into a CAS-storable array payload."""
        payload: dict[str, np.ndarray] = {
            "feat_lo": self.space.lo,
            "feat_hi": self.space.hi,
            "names": np.asarray(self.names),
            "basis_mean": self.basis.mean,
            "basis_scale": np.asarray(self.basis.scale),
            "basis_phi": self.basis.phi,
            "basis_explained": self.basis.explained,
            "basis_truncation_sd": self.basis.truncation_sd,
            "n_days": np.asarray(self.n_days),
            "version": np.asarray(self.version),
            "train_digest": np.asarray(self.train_digest),
            "n_train": np.asarray(self.n_train),
            "seed": np.asarray(self.seed),
            "n_gps": np.asarray(len(self.gps)),
        }
        for name, gp in [(f"gp{k}", gp) for k, gp in enumerate(self.gps)
                         ] + [("ar", self.attack_gp)]:
            payload[f"{name}_x"] = gp.x
            payload[f"{name}_y"] = gp.y
            payload[f"{name}_rho"] = gp.rho
            payload[f"{name}_lam"] = np.asarray(gp.lam)
            payload[f"{name}_nugget"] = np.asarray(gp.nugget)
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, np.ndarray]) -> "SurrogateModel":
        """Rebuild a model from :meth:`to_payload` arrays."""

        def _gp(name: str) -> GPEmulator:
            return GPEmulator(
                x=np.asarray(payload[f"{name}_x"], dtype=np.float64),
                y=np.asarray(payload[f"{name}_y"], dtype=np.float64),
                rho=np.asarray(payload[f"{name}_rho"], dtype=np.float64),
                lam=float(payload[f"{name}_lam"]),
                nugget=float(payload[f"{name}_nugget"]),
            )

        basis = OutputBasis(
            mean=np.asarray(payload["basis_mean"], dtype=np.float64),
            scale=float(payload["basis_scale"]),
            phi=np.asarray(payload["basis_phi"], dtype=np.float64),
            explained=np.asarray(payload["basis_explained"],
                                 dtype=np.float64),
            truncation_sd=np.asarray(payload["basis_truncation_sd"],
                                     dtype=np.float64),
        )
        return cls(
            space=FeatureSpace(
                lo=np.asarray(payload["feat_lo"], dtype=np.float64),
                hi=np.asarray(payload["feat_hi"], dtype=np.float64)),
            basis=basis,
            gps=tuple(_gp(f"gp{k}")
                      for k in range(int(payload["n_gps"]))),
            attack_gp=_gp("ar"),
            names=tuple(str(n) for n in np.asarray(payload["names"])),
            n_days=int(payload["n_days"]),
            version=str(payload["version"]),
            train_digest=str(payload["train_digest"]),
            n_train=int(payload["n_train"]),
            seed=int(payload["seed"]),
        )


def train_model(
    corpus: Corpus,
    *,
    p_eta: int = DEFAULT_P_ETA,
    seed: int = 0,
) -> SurrogateModel:
    """Fit a :class:`SurrogateModel` to a corpus, deterministically.

    Args:
        corpus: the training set (needs at least 3 rows for the GPs).
        p_eta: basis size (capped at the ensemble rank).
        seed: training seed; each coefficient GP gets its own derived
            stream, so two trainings on the same corpus produce
            identical fitted kernels.
    """
    if len(corpus) < 3:
        raise ValueError(
            f"corpus has {len(corpus)} usable runs; need at least 3 "
            "(run more scenarios or replay more ledgers)")
    space = FeatureSpace.fit(corpus.features)
    x_unit = space.to_unit(corpus.features)
    basis = fit_basis(corpus.outputs, p_eta=p_eta)
    coeffs = basis.project(corpus.outputs)
    gps = tuple(
        fit_gp(x_unit, coeffs[:, k], np.random.default_rng([seed, k]))
        for k in range(basis.p)
    )
    attack_gp = fit_gp(x_unit, corpus.attack_rates,
                       np.random.default_rng([seed, 10 ** 6]))
    return SurrogateModel(
        space=space,
        basis=basis,
        gps=gps,
        attack_gp=attack_gp,
        names=corpus.names,
        n_days=corpus.n_days,
        version=corpus.version,
        train_digest=corpus.digest(),
        n_train=len(corpus),
        seed=seed,
    )
