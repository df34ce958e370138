"""Model registry: serialized emulators in the CAS, one latest pointer.

Trained models are ordinary content-addressed payloads under their own
key family (:data:`~repro.surrogate.model.MODEL_NAMESPACE`), so they get
the store's integrity digest, quarantine and LRU machinery for free.
The registry adds the one piece of mutable state the fast path needs: a
small JSON pointer file naming the latest model key plus its training
provenance (train-set digest, corpus size, version), written atomically
next to the store's surrogate journal.

Staleness is decided against the pointer's recorded corpus size: once
the corpus outgrows the training set by more than the configured margin,
:meth:`ModelRegistry.stale` says retrain — the check ``repro surrogate
stats`` surfaces and the ops loop acts on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..store.cas import ContentStore
from ..store.files import atomic_write, read_json
from .corpus import corpus_version
from .model import MODEL_NAMESPACE, SurrogateModel

#: Corpus growth (completed runs beyond the train set) after which the
#: latest model is considered stale and a retrain is recommended.
DEFAULT_RETRAIN_AFTER: int = 32


class ModelRegistry:
    """Latest-model pointer over surrogate payloads in a content store.

    Args:
        store: the CAS holding serialized model payloads.
        retrain_after: corpus-growth margin for :meth:`stale`.
    """

    def __init__(self, store: ContentStore, *,
                 retrain_after: int = DEFAULT_RETRAIN_AFTER) -> None:
        self.store = store
        self.retrain_after = retrain_after

    @property
    def pointer_path(self) -> Path:
        """The latest-model JSON pointer file (atomic replace on write)."""
        return self.store.root / "surrogate" / "latest.json"

    # -- publish ---------------------------------------------------------------

    def publish(self, model: SurrogateModel) -> str:
        """Store a model payload and point ``latest`` at it.

        Returns the model's content key.  Publishing is idempotent: the
        same corpus + seed reproduces the same key and payload.
        """
        key = model.model_key()
        self.store.put(key, model.to_payload(), family=MODEL_NAMESPACE)
        info = {
            "key": key,
            "version": model.version,
            "train_digest": model.train_digest,
            "n_train": model.n_train,
            "n_days": model.n_days,
            "p_eta": model.basis.p,
            "seed": model.seed,
        }
        with atomic_write(self.pointer_path) as fh:
            json.dump(info, fh, sort_keys=True, indent=1)
        return key

    # -- resolve ---------------------------------------------------------------

    def latest_info(self) -> dict[str, Any] | None:
        """The pointer record, or None when nothing was ever published."""
        return read_json(self.pointer_path)

    def latest(self, *, salt: str | None = None) -> SurrogateModel | None:
        """Load the latest model, or None when absent or incompatible.

        A pointer whose recorded ``version`` does not match the current
        featurization + code-version salt is treated as missing: the
        kernels changed under the model, so its answers no longer
        correspond to what exact execution would produce.
        """
        info = self.latest_info()
        if info is None:
            return None
        if info.get("version") != corpus_version(salt):
            return None
        payload = self.store.get(info["key"])
        if payload is None:
            return None
        return SurrogateModel.from_payload(payload)

    def stale(self, corpus_size: int, *,
              salt: str | None = None) -> bool:
        """Whether the corpus has outgrown the latest model.

        True when no compatible model exists, or when ``corpus_size``
        exceeds the recorded train-set size by more than
        ``retrain_after`` runs.
        """
        info = self.latest_info()
        if info is None or info.get("version") != corpus_version(salt):
            return True
        return corpus_size > int(info["n_train"]) + self.retrain_after
