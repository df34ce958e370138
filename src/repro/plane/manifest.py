"""Canonical asset keys and the versioned plane manifest registry.

The plane is a node-level registry of built region assets: one JSON
manifest per asset bundle, written atomically next to the lease table
that arbitrates builds.  A manifest records *where* the bytes live (the
segment name and offset table from :mod:`repro.plane.segment`), *what*
they are (the :class:`AssetKey` plus the code-version salt, so stale
bytes from an older source tree can never be attached), and *who* built
them (owner pid — dead owners make a segment reclaimable).

:class:`AssetKey` is the one canonical identity of a bundle; every
consumer keys on it, so no two can disagree on what a bundle is (a preload
keyed without ``truth_days`` once silently missed the cache).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

from ..params import DEFAULT_SCALE, DEFAULT_SEED
from ..store.files import atomic_write

#: Manifest format version; attachers refuse manifests from the future.
PLANE_FORMAT: int = 1

#: Hash-domain namespace for plane keys.
PLANE_NAMESPACE: str = "repro/plane/1"

#: Default surveillance horizon (matches ``load_region_assets``).
DEFAULT_TRUTH_DAYS: int = 210

#: Truthy values for ``REPRO_PLANE``.
_TRUTHY = frozenset({"1", "true", "yes", "on"})


class PlaneError(RuntimeError):
    """A plane manifest or segment could not be used."""


@dataclass(frozen=True, slots=True, order=True)
class AssetKey:
    """Everything that determines one region-asset bundle, canonically.

    The single key type for every consumer that identifies "one build of
    one region's inputs": the per-process asset cache, the fan-out's
    preload and pool-reuse rule, replicate batch grouping, and the plane
    manifest.  Ordered, hashable and picklable, so it crosses process
    boundaries unchanged.
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
        h.update(PLANE_NAMESPACE.encode())
        h.update(b"\x00")
        h.update(salt.encode())
        h.update(b"\x00")
        h.update(self.token().encode())
        return h.hexdigest()


def plane_enabled() -> bool:
    """Whether the shared plane is opted in (``REPRO_PLANE`` env)."""
    return os.environ.get("REPRO_PLANE", "").strip().lower() in _TRUTHY


def opt_in(plane: bool | None, plane_dir: str | None = None) -> bool:
    """Write ``--plane`` / ``--plane-dir`` to ``REPRO_PLANE`` /
    ``REPRO_PLANE_DIR`` (``plane`` None: leave it); True when on.  Runs
    before any child is spawned: workers inherit the environment."""
    if plane_dir:
        os.environ["REPRO_PLANE_DIR"] = plane_dir
    if plane is None:
        return plane_enabled()
    if plane:
        os.environ["REPRO_PLANE"] = "1"
    else:
        os.environ.pop("REPRO_PLANE", None)
    return plane


def plane_root() -> Path:
    """Coordination directory: ``REPRO_PLANE_DIR`` or a per-uid default.

    Holds manifests, leases and refcount files — small metadata only; the
    asset bytes themselves live in ``/dev/shm`` segments.  Every process
    that should share one plane must see the same root (``repro serve
    --plane-dir`` sets it for the service and its pool workers).
    """
    raw = os.environ.get("REPRO_PLANE_DIR")
    if raw:
        return Path(raw)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"repro-plane-{uid}"


def manifest_dir(root: Path) -> Path:
    """The plane root's manifest registry directory."""
    return Path(root) / "manifests"


def lease_dir(root: Path) -> Path:
    """The build-arbitration lease table directory."""
    return Path(root) / "leases"


def refs_dir(root: Path, key: str) -> Path:
    """One segment's per-pid refcount directory."""
    return Path(root) / "refs" / key


def manifest_path(root: Path, key: str) -> Path:
    """The manifest file publishing the segment for ``key``."""
    return manifest_dir(root) / f"{key}.json"


@dataclass(frozen=True, slots=True)
class Manifest:
    """One built bundle: identity, location, layout, ownership."""

    key: str  #: :meth:`AssetKey.digest` under the build salt
    asset: AssetKey
    salt: str
    segment: str  #: shared-memory object name
    nbytes: int  #: total segment size
    arrays: list  #: offset table (see :func:`repro.plane.segment.layout`)
    meta: dict  #: scalar fields needed to rebuild the dataclasses
    owner_pid: int
    owner: str
    created_ts: float
    format: int = PLANE_FORMAT

    def to_json(self) -> str:
        """Serialize for the registry file (sorted keys, stable)."""
        return json.dumps({
            "format": self.format,
            "key": self.key,
            "asset": {
                "region_code": self.asset.region_code,
                "scale": self.asset.scale,
                "seed": self.asset.seed,
                "truth_days": self.asset.truth_days,
            },
            "salt": self.salt,
            "segment": self.segment,
            "nbytes": self.nbytes,
            "arrays": self.arrays,
            "meta": self.meta,
            "owner_pid": self.owner_pid,
            "owner": self.owner,
            "created_ts": self.created_ts,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        rec = json.loads(text)
        fmt = int(rec.get("format", -1))
        if fmt > PLANE_FORMAT:
            raise PlaneError(
                f"manifest format {fmt} is newer than supported "
                f"{PLANE_FORMAT}")
        a = rec["asset"]
        return cls(
            key=str(rec["key"]),
            asset=AssetKey(a["region_code"], a["scale"], a["seed"],
                           a["truth_days"]),
            salt=str(rec["salt"]),
            segment=str(rec["segment"]),
            nbytes=int(rec["nbytes"]),
            arrays=list(rec["arrays"]),
            meta=dict(rec["meta"]),
            owner_pid=int(rec["owner_pid"]),
            owner=str(rec.get("owner", "")),
            created_ts=float(rec.get("created_ts", 0.0)),
            format=fmt,
        )


def write_manifest(root: Path, m: Manifest) -> Path:
    """Publish ``m`` atomically (write-temp-then-rename)."""
    path = manifest_path(root, m.key)
    with atomic_write(path) as fh:
        fh.write(m.to_json())
    return path


def read_manifest(root: Path, key: str) -> Manifest | None:
    """Load a manifest; None when absent or unusable.

    Unusable covers a torn/unparseable record and a future format bump —
    in either case the caller behaves as if the bundle were never built
    (re-arbitrating the build overwrites the bad record atomically).
    """
    try:
        text = manifest_path(root, key).read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        return None
    try:
        return Manifest.from_json(text)
    except (PlaneError, ValueError, KeyError, TypeError):
        return None


def list_manifests(root: Path) -> list[Manifest]:
    """Every readable manifest under ``root`` (sorted by key)."""
    mdir = manifest_dir(root)
    if not mdir.is_dir():
        return []
    out = []
    for path in sorted(mdir.glob("*.json")):
        m = read_manifest(root, path.stem)
        if m is not None:
            out.append(m)
    return out
