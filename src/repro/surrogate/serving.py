"""The fast-answer tier: uncertainty-gated emulation in front of the queue.

:class:`SurrogateGate` is what the scenario service consults before
enqueueing a request.  The decision ladder, cheapest test first:

1. no compatible published model → **miss** (the corpus flywheel has not
   spun yet, or the kernels changed under the model);
2. wrong horizon, or the request leaves the training hull (it moves a
   feature the corpus never varied, or exceeds the observed bounds) →
   **fallback** to exact simulation;
3. predicted relative uncertainty above the gate's threshold →
   **fallback** — the emulator knows it does not know;
4. otherwise → **hit**: the request completes immediately with the
   reconstructed trajectory, ~95% bands, and ``source: "surrogate"``.

Every decision is published to the ``surrogate.*`` metrics namespace
(``hit`` / ``fallback`` / ``miss`` counters, the ``rtol`` band-width
timer, ``predict_s``), so hit rates and band widths are observable next
to the queue and store counters.  The gate re-reads the registry pointer
(one ``stat`` call) per request, so a retrain published by ``repro
surrogate train`` is picked up by a running service without a restart.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..obs.registry import MetricsRegistry, Stopwatch
from .corpus import featurize_spec
from .model import BAND_Z, SurrogateModel
from .registry import ModelRegistry

#: Default relative-uncertainty gate: serve from the surrogate only when
#: the mean predictive sd is under this fraction of the peak trajectory.
DEFAULT_RTOL: float = 0.05

#: Allowed extrapolation beyond the training hull, as a fraction of each
#: active feature's observed range.
DEFAULT_HULL_PAD: float = 0.1


def surrogate_payload(pred, *, rtol: float) -> dict[str, np.ndarray]:
    """The result arrays a surrogate-served request completes with.

    Shaped like an exact result (``confirmed`` + ``attack_rate``) plus
    the uncertainty bands and the ``source`` marker that distinguishes
    an emulated answer from a bit-exact simulated one.
    """
    lo, hi = pred.bands()
    return {
        "confirmed": np.asarray(pred.mean, dtype=np.float64),
        "confirmed_lo": np.asarray(lo, dtype=np.float64),
        "confirmed_hi": np.asarray(hi, dtype=np.float64),
        "confirmed_sd": np.asarray(pred.sd, dtype=np.float64),
        "attack_rate": np.asarray(pred.attack_rate, dtype=np.float64),
        "attack_rate_sd": np.asarray(pred.attack_sd, dtype=np.float64),
        "band_z": np.asarray(BAND_Z),
        "rtol": np.asarray(rtol),
        "source": np.asarray("surrogate"),
    }


class SurrogateGate:
    """Decides, per request, whether the emulator may answer.

    Args:
        registry: where trained models are published.
        rtol: relative-uncertainty threshold for serving.
        salt: cache-key salt override (tests); must match the salt the
            corpus was built under.
        metrics: ``surrogate.*`` sink (a private registry when omitted).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        rtol: float = DEFAULT_RTOL,
        salt: str | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if rtol <= 0:
            raise ValueError("rtol must be positive")
        self.registry = registry
        self.rtol = rtol
        self.salt = salt
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._cached: SurrogateModel | None = None
        self._cache_token: tuple[int, int] | None = None

    # -- model resolution ------------------------------------------------------

    def model(self) -> SurrogateModel | None:
        """The current latest model (pointer-stat cached per call)."""
        try:
            st = self.registry.pointer_path.stat()
            token = (st.st_mtime_ns, st.st_size)
        except OSError:
            self._cached, self._cache_token = None, None
            return None
        if token != self._cache_token:
            self._cached = self.registry.latest(salt=self.salt)
            self._cache_token = token
        return self._cached

    def model_info(self) -> dict[str, Any] | None:
        """The registry pointer record (health/ops views)."""
        return self.registry.latest_info()

    # -- the gate --------------------------------------------------------------

    def try_answer(self, spec) -> dict[str, np.ndarray] | None:
        """Emulated result payload for ``spec``, or None to run exactly.

        None always means "enqueue for exact simulation"; the counters
        record *why* (``surrogate.miss`` when no model could answer at
        all, ``surrogate.fallback`` when a model declined this request).
        """
        watch = Stopwatch()
        model = self.model()
        if model is None:
            self.metrics.inc("surrogate.miss")
            return None
        if int(spec.n_days) != model.n_days:
            self.metrics.inc("surrogate.fallback")
            return None
        features = featurize_spec(spec)
        if not model.space.contains(features, pad=DEFAULT_HULL_PAD):
            self.metrics.inc("surrogate.fallback")
            return None
        pred = model.predict_features(features)
        self.metrics.observe("surrogate.rtol", pred.rtol)
        if pred.rtol > self.rtol:
            self.metrics.inc("surrogate.fallback")
            return None
        self.metrics.inc("surrogate.hit")
        self.metrics.observe("surrogate.predict_s", watch.elapsed())
        return surrogate_payload(pred, rtol=pred.rtol)
