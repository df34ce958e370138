"""Canonical, salted cache keys for simulation instances.

A key must satisfy two properties the nightly pipeline depends on:

- **Canonical** — two specs that provably produce the same result hash to
  the same key.  Parameter order is irrelevant, numeric types are
  normalised, and display labels are excluded.  Every parameter name
  counts, including one the runner does not read.
- **Salted by code version** — results are only as reusable as the kernel
  that produced them.  The salt hashes the source of every result-affecting
  module (simulator, disease model, synthetic-population builder,
  surveillance generator, aggregation), so editing any of them silently
  invalidates the whole store instead of serving stale series.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
from functools import lru_cache
from typing import Any, Mapping

#: Key namespace for memoized :class:`~repro.core.parallel.InstanceOutcome`
#: payloads.  Bump the version when the payload layout changes.
INSTANCE_NAMESPACE: str = "instance-outcome/v1"

#: Key namespace for an instance's per-state
#: :class:`~repro.analytics.aggregate.RegionSummary` (``new`` and
#: ``current``), the second payload family stored under the same spec.
SUMMARY_NAMESPACE: str = "instance-summary/v1"

#: Modules whose source participates in the code-version salt: everything
#: between an :class:`InstanceSpec` and the confirmed series it produces.
SALT_MODULES: tuple[str, ...] = (
    "repro.analytics.aggregate",
    "repro.core.runner",
    "repro.epihiper.batch",
    "repro.epihiper.covid",
    "repro.epihiper.disease",
    "repro.epihiper.engine",
    "repro.epihiper.initialization",
    "repro.epihiper.interventions",
    "repro.epihiper.npi",
    "repro.epihiper.progression",
    "repro.epihiper.states",
    "repro.epihiper.transmission",
    "repro.surveillance.sources",
    "repro.surveillance.truth",
    "repro.synthpop.activities",
    "repro.synthpop.contacts",
    "repro.synthpop.ipf",
    "repro.synthpop.locations",
    "repro.synthpop.persons",
    "repro.synthpop.regions",
    "repro.synthpop.week",
)


def canonical_value(value: Any) -> str:
    """Normalise one parameter value to a typed, unambiguous token.

    Booleans, ints, floats and strings each get a distinct prefix so
    ``1``, ``1.0``, ``True`` and ``"1"`` cannot collide; floats go through
    ``repr`` which round-trips exactly.
    """
    if isinstance(value, bool):
        return f"b:{bool(value)}"
    if isinstance(value, int):
        return f"i:{int(value)}"
    if isinstance(value, float):
        # Coerce before repr: np.float64 subclasses float but reprs as
        # "np.float64(...)", which would give the same number two keys
        # (and break spec round-trips through the JSON ledger).
        return f"f:{float(value)!r}"
    if isinstance(value, str):
        return f"s:{str(value)}"
    if value is None:
        return "none"
    raise TypeError(
        f"unsupported parameter type for cache key: {type(value).__name__}")


def canonical_params(params: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    """Sorted (name, canonical value) pairs."""
    return tuple((name, canonical_value(params[name]))
                 for name in sorted(params))


@lru_cache(maxsize=1)
def _source_salt() -> str:
    """SHA-256 over the source text of every result-affecting module."""
    digest = hashlib.sha256()
    for name in SALT_MODULES:
        module = importlib.import_module(name)
        digest.update(name.encode())
        digest.update(inspect.getsource(module).encode())
    return digest.hexdigest()


def code_version_salt() -> str:
    """The store salt: ``REPRO_STORE_SALT`` if set, else the source hash."""
    return os.environ.get("REPRO_STORE_SALT") or _source_salt()


def instance_key(
    spec,
    *,
    salt: str | None = None,
    namespace: str = INSTANCE_NAMESPACE,
) -> str:
    """Content key of one :class:`~repro.core.parallel.InstanceSpec`.

    The key covers everything that determines the simulation output —
    region, result-affecting parameters, horizon, scale, both seeds, and
    the code-version salt — and nothing that does not (``label``).

    Args:
        spec: the instance spec (any object with the ``InstanceSpec``
            fields; duck-typed so callers can key ad-hoc requests).
        salt: override the code-version salt (tests, forced invalidation).
        namespace: payload-layout namespace.

    Returns:
        A 64-character hex digest, usable as a filename.
    """
    if salt is None:
        salt = code_version_salt()
    parts = [
        f"ns={namespace}",
        f"salt={salt}",
        f"region={spec.region_code}",
        f"params={canonical_params(spec.params)}",
        f"n_days=i:{int(spec.n_days)}",
        f"scale=f:{float(spec.scale)!r}",
        f"seed=i:{int(spec.seed)}",
        f"asset_seed=i:{int(spec.asset_seed)}",
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()
