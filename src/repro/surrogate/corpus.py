"""Training corpus extraction: from run ledgers + CAS to (x, y) pairs.

Thousands of completed runs already sit on disk as content-addressed
blobs; the run ledger records which instance produced which key.  The
corpus builder replays one or more ledgers, keeps ``instance_completed``
events that carry their spec (recorded by
:mod:`repro.store.memo` since the surrogate era), re-derives each event's
cache key under the *current* code-version salt — which silently drops
runs produced by older kernels — and resolves the surviving keys against
the store.  What comes back is the emulator's training set: one
deterministic feature vector and one confirmed-case trajectory per
distinct completed instance.

Featurization is versioned (:data:`FEATURE_VERSION`) alongside the
store's code-version salt: a model trained under one (features, salt)
pair never silently serves requests keyed under another.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from ..store.cas import ContentStore
from ..store.keys import code_version_salt, instance_key
from ..store.ledger import replay_ledger
from ..synthpop.regions import ALL_CODES

#: Featurization scheme version; bump when the feature layout changes.
#: Stored with every trained model so serving can refuse a mismatch.
FEATURE_VERSION: str = "surrogate-features/v1"

#: Scalar features extracted from ``InstanceSpec.params``:
#: (feature name, accepted param keys, default when absent).
#: Defaults mirror :mod:`repro.core.runner`'s parameter handling, so an
#: absent knob and its explicit default featurize identically.
PARAM_FEATURES: tuple[tuple[str, tuple[str, ...], float], ...] = (
    ("tau", ("TAU",), 0.18),
    ("symp", ("SYMP",), 0.65),
    ("sh_compliance", ("SH_COMPLIANCE", "sh_compliance"), 0.0),
    ("vhi_compliance", ("VHI_COMPLIANCE", "vhi_compliance"), 0.0),
    ("lockdown_days", ("lockdown_days",), 60.0),
    ("reopen_level", ("reopen_level",), 0.0),
    ("tracing_compliance", ("tracing_compliance",), 0.0),
)


def feature_names() -> tuple[str, ...]:
    """The ordered feature vocabulary of :data:`FEATURE_VERSION`."""
    return tuple(
        [name for name, _keys, _default in PARAM_FEATURES]
        + ["log10_scale"]
        + [f"region:{code}" for code in ALL_CODES]
    )


def featurize_spec(spec) -> np.ndarray:
    """Deterministic float64 feature vector of one instance spec.

    Scalar disease/intervention parameters (with the runner's defaults
    for absent knobs), the log10 population scale, and a one-hot region
    block over every known region code.  The simulation ``seed`` is
    deliberately excluded: the emulator predicts the scenario's expected
    trajectory with uncertainty, not one replicate's stream.
    """
    params: Mapping[str, Any] = spec.params
    values: list[float] = []
    for _name, keys, default in PARAM_FEATURES:
        raw = next((params[k] for k in keys if k in params), default)
        values.append(float(raw))
    values.append(float(np.log10(float(spec.scale))))
    region = str(spec.region_code).upper()
    values.extend(1.0 if code == region else 0.0 for code in ALL_CODES)
    return np.asarray(values, dtype=np.float64)


def spec_record(spec) -> dict[str, Any]:
    """JSON-safe dict of the result-affecting ``InstanceSpec`` fields.

    This is what ledger events carry so the corpus builder can re-derive
    features (and re-key the event) long after the run finished.
    """
    return {
        "region": spec.region_code,
        "params": dict(spec.params),
        "n_days": int(spec.n_days),
        "scale": float(spec.scale),
        "seed": int(spec.seed),
        "asset_seed": int(spec.asset_seed),
        "label": spec.label,
    }


def spec_from_record(record: Mapping[str, Any]):
    """Rebuild an :class:`~repro.core.parallel.InstanceSpec` from a
    :func:`spec_record` dict (ledger replay path)."""
    from ..core.parallel import InstanceSpec

    return InstanceSpec(
        region_code=str(record["region"]),
        params=dict(record["params"]),
        n_days=int(record["n_days"]),
        scale=float(record["scale"]),
        seed=int(record["seed"]),
        label=str(record.get("label", "")),
        asset_seed=int(record.get("asset_seed", record["seed"])),
    )


def corpus_ledger_path(store: ContentStore) -> Path:
    """The store-adjacent journal the service folds exact runs into.

    A plain :class:`~repro.store.ledger.RunLedger` file under the store
    root — the broker appends spec-carrying ``instance_completed`` events
    there, and ``repro surrogate train`` replays it by default, closing
    the active-learning loop without extra plumbing.
    """
    return store.root / "surrogate" / "corpus.jsonl"


@dataclass(frozen=True)
class Corpus:
    """A resolved training set: features, trajectories, provenance.

    Attributes:
        features: ``(n, d)`` feature matrix (:func:`featurize_spec` rows).
        outputs: ``(n, T + 1)`` confirmed-case trajectories.
        attack_rates: ``(n,)`` scalar attack rates.
        keys: the content key behind each row (dedup identity).
        names: feature vocabulary (matches ``features`` columns).
        n_days: the shared horizon of every trajectory.
        version: ``"<FEATURE_VERSION>+<salt>"`` the rows were built under.
    """

    features: np.ndarray
    outputs: np.ndarray
    attack_rates: np.ndarray
    keys: tuple[str, ...]
    names: tuple[str, ...]
    n_days: int
    version: str

    def __len__(self) -> int:
        return len(self.keys)

    def digest(self) -> str:
        """SHA-256 over the sorted member keys plus the version.

        The train-set identity the model registry records: two corpora
        with the same completed runs under the same featurization hash
        identically regardless of ledger replay order.
        """
        h = hashlib.sha256(self.version.encode())
        for key in sorted(self.keys):
            h.update(key.encode())
        return h.hexdigest()

    def subset(self, idx) -> "Corpus":
        """Row-subset view (held-out evaluation splits)."""
        idx = np.asarray(idx, dtype=np.intp)
        return Corpus(
            features=self.features[idx],
            outputs=self.outputs[idx],
            attack_rates=self.attack_rates[idx],
            keys=tuple(self.keys[i] for i in idx),
            names=self.names,
            n_days=self.n_days,
            version=self.version,
        )


def corpus_version(salt: str | None = None) -> str:
    """The ``features+salt`` version string a corpus/model is bound to."""
    return f"{FEATURE_VERSION}+{salt if salt is not None else code_version_salt()}"


def completed_spec_events(
    ledgers: Iterable[str | Path],
) -> list[dict[str, Any]]:
    """Spec-carrying ``instance_completed`` events across ledger files.

    Later events win per key (re-executions overwrite), and events
    without a ``spec`` field — pre-surrogate ledgers — are skipped.
    """
    by_key: dict[str, dict[str, Any]] = {}
    for path in ledgers:
        for event in replay_ledger(path).events:
            if event.get("event") != "instance_completed":
                continue
            if "spec" not in event or "key" not in event:
                continue
            by_key[event["key"]] = event
    return list(by_key.values())


def build_corpus(
    store: ContentStore,
    ledgers: Iterable[str | Path] | None = None,
    *,
    salt: str | None = None,
) -> Corpus:
    """Scan ledgers + store into a :class:`Corpus`.

    Args:
        store: the content-addressed store holding run payloads.  The
            store's own corpus journal (:func:`corpus_ledger_path`) is
            always replayed in addition to ``ledgers``.
        ledgers: extra run-ledger files (nightly journals, service logs).
        salt: cache-key salt override (tests); defaults to the current
            code-version salt.  Events whose recorded key does not match
            their spec re-keyed under this salt are dropped — they were
            produced by a different kernel version and would poison the
            training set.

    Only the most common horizon among the resolved events is kept
    (trajectory rows must share a length for the output basis).
    """
    paths: list[Path] = [corpus_ledger_path(store)]
    for p in ledgers or ():
        paths.append(Path(p))
    events = completed_spec_events(paths)

    rows: list[tuple[str, Any]] = []
    for event in events:
        spec = spec_from_record(event["spec"])
        if instance_key(spec, salt=salt) != event["key"]:
            continue  # stale code version: key no longer derivable
        rows.append((event["key"], spec))

    n_days = None
    if rows:
        horizons = np.array([spec.n_days for _k, spec in rows])
        values, counts = np.unique(horizons, return_counts=True)
        n_days = int(values[np.argmax(counts)])

    feats: list[np.ndarray] = []
    outs: list[np.ndarray] = []
    rates: list[float] = []
    keys: list[str] = []
    for key, spec in rows:
        if n_days is not None and spec.n_days != n_days:
            continue
        payload = store.get(key)
        if payload is None or "confirmed" not in payload:
            continue  # collected or foreign payload: nothing to learn from
        feats.append(featurize_spec(spec))
        outs.append(np.asarray(payload["confirmed"], dtype=np.float64))
        rates.append(float(payload["attack_rate"]))
        keys.append(key)

    d = len(feature_names())
    return Corpus(
        features=(np.vstack(feats) if feats
                  else np.empty((0, d), dtype=np.float64)),
        outputs=(np.vstack(outs) if outs
                 else np.empty((0, (n_days or 0) + 1), dtype=np.float64)),
        attack_rates=np.asarray(rates, dtype=np.float64),
        keys=tuple(keys),
        names=feature_names(),
        n_days=int(n_days or 0),
        version=corpus_version(salt),
    )
