"""Region asset bundles: the one key and the one array layout.

A :class:`~repro.core.runner.RegionAssets` is three columnar dataclasses
(population, contact network, surveillance truth) plus a scale scalar.
:class:`AssetKey` says which bundle a consumer means; this module
flattens a bundle into one ``group.column`` named mapping — the payload
the result store keeps under the ``assets/v1`` family — and rebuilds the
dataclasses from the (read-only, mapped) arrays a store read returns.
The scalars (region code, node count, scale) travel as 0-d ``meta.*``
arrays beside the columns.

Rebuilding from *read-only* views is safe by construction:

- every ``__post_init__`` on these dataclasses only validates (or fills
  defaults we always serialise explicitly, so the fill branch never runs
  on a mapped read);
- the engine copies anything it mutates (``active`` → ``base_active``,
  ``weight`` → ``edge_weight``) before the first tick, so simulations on
  mapped assets are bit-identical to ones on privately built assets.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Mapping

import numpy as np

from ..params import DEFAULT_SCALE, DEFAULT_SEED

#: Store family (and hash-domain namespace) of region asset bundles.
ASSETS_NAMESPACE: str = "assets/v1"

#: Default surveillance horizon (matches ``load_region_assets``).
DEFAULT_TRUTH_DAYS: int = 210

#: Population columns serialised into the bundle, in layout order.
POP_COLUMNS: tuple[str, ...] = (
    "pid", "hid", "age", "age_group", "gender", "county",
    "home_lat", "home_lon", "county_codes",
)

#: Contact-network columns serialised into the bundle, in layout order.
NET_COLUMNS: tuple[str, ...] = (
    "source", "target", "start", "duration",
    "source_activity", "target_activity", "weight", "active",
)

#: Ground-truth columns serialised into the bundle, in layout order.
TRUTH_COLUMNS: tuple[str, ...] = ("county", "daily", "cumulative")


@dataclass(frozen=True, slots=True, order=True)
class AssetKey:
    """Everything that determines one region-asset bundle, canonically.

    The single key type for every consumer that identifies "one build of
    one region's inputs": the per-process asset cache, the fan-out's
    preload and pool-reuse rule, replicate batch grouping, and the
    store's ``assets/v1`` blob.  Ordered, hashable and picklable, so it
    crosses process boundaries unchanged.
    """

    region_code: str
    scale: float = DEFAULT_SCALE
    seed: int = DEFAULT_SEED
    truth_days: int = DEFAULT_TRUTH_DAYS

    def __post_init__(self) -> None:
        # Normalise numeric types once so VA@1e-3 built from an int-typed
        # scale and from a float cannot produce two distinct keys.
        object.__setattr__(self, "region_code", str(self.region_code))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "truth_days", int(self.truth_days))

    @classmethod
    def of_spec(cls, spec) -> "AssetKey":
        """The asset key an :class:`~repro.core.parallel.InstanceSpec`
        loads under (specs always use the default truth horizon)."""
        return cls(spec.region_code, spec.scale, spec.asset_seed)

    def token(self) -> str:
        """Human-readable canonical form (floats via ``repr``)."""
        return (f"{self.region_code}|{self.scale!r}|{self.seed}"
                f"|{self.truth_days}")

    def digest(self, salt: str) -> str:
        """Content key of this bundle under ``salt`` (hex, 64 chars)."""
        h = sha256()
        h.update(ASSETS_NAMESPACE.encode())
        h.update(b"\x00")
        h.update(salt.encode())
        h.update(b"\x00")
        h.update(self.token().encode())
        return h.hexdigest()


def _columns(assets) -> dict[str, np.ndarray]:
    """The bundle's column arrays by ``group.column`` name.

    ``county_codes`` and ``active`` are included even though their
    dataclasses can derive them, so a rebuild never takes the
    derive-and-assign branch (which would write through a read-only view).
    """
    arrays: dict[str, np.ndarray] = {}
    for name in POP_COLUMNS:
        arrays[f"pop.{name}"] = getattr(assets.pop, name)
    for name in NET_COLUMNS:
        arrays[f"net.{name}"] = getattr(assets.net, name)
    for name in TRUTH_COLUMNS:
        arrays[f"truth.{name}"] = getattr(assets.truth, name)
    return arrays


def bundle_payload(assets) -> dict[str, np.ndarray]:
    """``assets`` as one store payload: its columns plus ``meta.*``."""
    return {
        **_columns(assets),
        "meta.region_code": np.asarray(str(assets.net.region_code)),
        "meta.n_nodes": np.asarray(int(assets.net.n_nodes), dtype=np.int64),
        "meta.scale": np.asarray(float(assets.scale), dtype=np.float64),
    }


def bundle_nbytes(assets) -> int:
    """Exact bytes of ``assets``'s columns (the shared bytes one node pays)."""
    return int(sum(a.nbytes for a in _columns(assets).values()))


def assets_from_payload(payload: Mapping[str, np.ndarray]):
    """Rebuild a :class:`~repro.core.runner.RegionAssets` over ``payload``.

    The returned bundle's arrays alias the payload's (zero copies); a
    mapped payload keeps its file mapping alive for as long as they do.
    """
    from ..core.runner import RegionAssets
    from ..surveillance.truth import GroundTruth
    from ..synthpop.contacts import ContactNetwork
    from ..synthpop.persons import Population

    region = str(payload["meta.region_code"])
    pop = Population(
        region_code=region,
        **{name: payload[f"pop.{name}"] for name in POP_COLUMNS},
    )
    net = ContactNetwork(
        region_code=region,
        n_nodes=int(payload["meta.n_nodes"]),
        **{name: payload[f"net.{name}"] for name in NET_COLUMNS},
    )
    truth = GroundTruth(
        region_code=region,
        **{name: payload[f"truth.{name}"] for name in TRUTH_COLUMNS},
    )
    return RegionAssets(pop=pop, net=net, truth=truth,
                        scale=float(payload["meta.scale"]))
