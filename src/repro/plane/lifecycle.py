"""Plane lifecycle: build-once arbitration, refcounts, reclamation.

One :class:`PlaneRuntime` per plane root per process owns every segment
this process maps.  The cross-process protocol reuses the store's
:class:`~repro.store.cas.LeaseTable` discipline end to end:

- **build-once** — contenders race an ``O_CREAT|O_EXCL`` lease on the
  bundle key; exactly one wins and builds, the rest ``wait`` on the
  manifest appearing and then attach (the same coalescing the memoized
  fan-out uses for instance results);
- **refcount** — every mapping drops a ``refs/<key>/<pid>.ref`` file;
  refs of dead pids are pruned whenever anyone looks, so a crashed
  worker can never pin a segment;
- **reclaim** — a segment is unlinked only when no live refs remain:
  explicitly via :func:`plane_gc` (the ``repro plane gc`` command), and
  opportunistically by the last exiting attacher (so a normal pool run
  leaves ``/dev/shm`` clean).
  A manifest whose segment has vanished — the crashed-owner case — is
  detected on attach, torn down, and the build re-arbitrated.

Degradation is graceful by contract: any failure to create or map shared
memory (``/dev/shm`` absent, too small, permission-denied) makes
:meth:`PlaneRuntime.ensure` return ``None`` and the caller falls back to
today's per-process copy; a missing-shm probe failure disables the plane
for the process so the cost is paid once.
"""

from __future__ import annotations

import atexit
import errno
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..obs.registry import MetricsRegistry, global_registry
from ..store.cas import LEASE_DONE, LEASE_TIMEOUT, LeaseTable
from ..store.files import pid_alive
from . import segment as seg
from .bundle import assets_from_views, bundle_arrays
from .manifest import (
    AssetKey,
    Manifest,
    lease_dir,
    list_manifests,
    manifest_path,
    plane_root,
    read_manifest,
    refs_dir,
    write_manifest,
)

#: How long a lease loser waits for the winner's manifest before giving
#: up and building a private copy (seconds; builds are tens of ms at test
#: scale, seconds at 1:100).
WAIT_TIMEOUT_S: float = 120.0

#: Attach/build contention retries before falling back to a local build.
MAX_ATTEMPTS: int = 4


#: Truthy values for ``REPRO_PLANE_KEEP``.
_KEEP_TRUTHY = frozenset({"1", "true", "yes", "on"})


def keep_on_exit() -> bool:
    """Whether exit skips the last-man-out reap (``REPRO_PLANE_KEEP``).

    Pre-warm flows (``repro plane build``, ``night``'s design prebuild)
    set this so their segments outlive the building process and serve
    later workers on the node; ``repro plane gc`` reclaims them.
    """
    return (os.environ.get("REPRO_PLANE_KEEP", "").strip().lower()
            in _KEEP_TRUTHY)


def _segment_name(key: str) -> str:
    return f"{seg.SEGMENT_PREFIX}{key[:24]}"


def _plane_salt() -> str:
    from ..store.keys import code_version_salt

    return code_version_salt()


@dataclass
class _Attachment:
    """One mapped segment in this process."""

    key: str
    shm: object
    manifest: Manifest
    assets: object
    ref_path: Path | None
    pid: int  #: pid that created the mapping (fork-inherited copies differ)
    owner: bool  #: whether this process built the segment


@dataclass
class PlaneRuntime:
    """Per-process owner of every plane mapping under one root."""

    root: Path
    _attached: dict[str, _Attachment] = field(default_factory=dict)
    _disabled: str | None = None
    _probed: bool = False

    # -- availability ----------------------------------------------------------

    def available(self) -> bool:
        """Whether shared memory works here (probed once per process)."""
        if self._disabled is not None:
            return False
        if not self._probed:
            self._probed = True
            name = f"{seg.SEGMENT_PREFIX}probe-{os.getpid()}"
            try:
                seg.probe(name)
            except (OSError, ValueError) as exc:
                self._disabled = f"shared memory unavailable: {exc}"
        return self._disabled is None

    def disabled_reason(self) -> str | None:
        """Why the plane is off for this process (None while usable)."""
        return self._disabled

    # -- the attach API --------------------------------------------------------

    def ensure(self, key: AssetKey, builder: Callable[[], object], *,
               metrics: MetricsRegistry | None = None):
        """The node-shared bundle for ``key``, building it if first here.

        Returns the attached (read-only, zero-copy) assets, or ``None``
        when the plane cannot serve them — the caller then builds a
        private copy exactly as before the plane existed.
        """
        reg = metrics if metrics is not None else global_registry()
        digest = key.digest(_plane_salt())
        att = self._attached.get(digest)
        if att is not None:
            reg.inc("plane.hits")
            return att.assets
        if not self.available():
            reg.inc("plane.fallbacks")
            return None
        leases = self._leases()
        for _ in range(MAX_ATTEMPTS):
            m = read_manifest(self.root, digest)
            if m is not None:
                assets = self._try_attach(m, reg)
                if assets is not None:
                    return assets
                if self._disabled is not None:
                    reg.inc("plane.fallbacks")
                    return None
                continue  # stale manifest torn down: re-arbitrate
            if leases.acquire(digest):
                try:
                    return self._build(key, digest, builder, reg)
                finally:
                    leases.release(digest)
            done = manifest_path(self.root, digest).exists
            outcome = leases.wait(digest, done, timeout_s=WAIT_TIMEOUT_S)
            if outcome == LEASE_TIMEOUT:
                break
            # LEASE_DONE: attach on the next pass; LEASE_VACATED: the
            # winner failed or released — re-contend for the build.
            del outcome
        reg.inc("plane.fallbacks")
        return None

    # -- internals -------------------------------------------------------------

    def _leases(self) -> LeaseTable:
        return LeaseTable(root=lease_dir(self.root),
                          owner=f"plane:{os.getpid()}")

    def _add_ref(self, digest: str) -> Path:
        rdir = refs_dir(self.root, digest)
        rdir.mkdir(parents=True, exist_ok=True)
        path = rdir / f"{os.getpid()}.ref"
        path.write_text(json.dumps({"pid": os.getpid(),
                                    "ts": time.time()}),
                        encoding="utf-8")
        return path

    def _try_attach(self, m: Manifest, reg: MetricsRegistry):
        """Map a published segment; tear down the manifest when stale.

        The ref file is dropped *before* opening the segment, so a
        concurrent reaper either sees the ref (and keeps the segment) or
        has already unlinked it (and our open fails cleanly — we remove
        the ref, remove the dangling manifest, and the caller
        re-arbitrates the build).
        """
        ref = self._add_ref(m.key)
        try:
            shm = seg.open_segment(m.segment)
        except FileNotFoundError:
            ref.unlink(missing_ok=True)
            manifest_path(self.root, m.key).unlink(missing_ok=True)
            reg.inc("plane.stale")
            return None
        except (OSError, ValueError) as exc:
            ref.unlink(missing_ok=True)
            self._disabled = f"attach failed: {exc}"
            return None
        try:
            assets = assets_from_views(m.meta, seg.views(shm, m.arrays))
        except Exception:
            ref.unlink(missing_ok=True)
            shm.close()
            manifest_path(self.root, m.key).unlink(missing_ok=True)
            reg.inc("plane.stale")
            return None
        self._attached[m.key] = _Attachment(
            key=m.key, shm=shm, manifest=m, assets=assets, ref_path=ref,
            pid=os.getpid(), owner=False)
        reg.inc("plane.attached")
        return assets

    def _build(self, key: AssetKey, digest: str,
               builder: Callable[[], object], reg: MetricsRegistry):
        """Build, pack and publish one bundle (lease already held).

        Returns the *attached* view-backed assets — the builder's private
        arrays are dropped immediately, so even the building process runs
        its simulations off the shared pages.
        """
        lost = read_manifest(self.root, digest)
        if lost is not None:
            # A previous holder published between our manifest check and
            # lease acquisition: just attach.
            return self._try_attach(lost, reg)
        assets = builder()
        meta, arrays = bundle_arrays(assets)
        entries, total = seg.layout(arrays)
        name = _segment_name(digest)
        try:
            try:
                shm = seg.create_segment(name, total)
            except FileExistsError:
                # Orphan from a builder that crashed between create and
                # publish — we hold the lease, so it is safe to replace.
                seg.unlink_segment(name)
                shm = seg.create_segment(name, total)
        except (OSError, ValueError) as exc:
            if isinstance(exc, OSError) and exc.errno not in (
                    errno.ENOSPC, errno.ENOMEM):
                self._disabled = f"segment create failed: {exc}"
            reg.inc("plane.fallbacks")
            return None
        try:
            seg.pack(shm, entries, arrays)
        except BaseException:
            seg.destroy(shm)
            raise
        del assets, arrays
        ref = self._add_ref(digest)
        m = Manifest(
            key=digest, asset=key, salt=_plane_salt(), segment=name,
            nbytes=total, arrays=entries, meta=meta,
            owner_pid=os.getpid(), owner=f"pid:{os.getpid()}",
            created_ts=time.time())
        write_manifest(self.root, m)
        attached = assets_from_views(meta, seg.views(shm, entries))
        self._attached[digest] = _Attachment(
            key=digest, shm=shm, manifest=m, assets=attached,
            ref_path=ref, pid=os.getpid(), owner=True)
        reg.inc("plane.built")
        reg.inc("plane.bytes", total)
        reg.inc("plane.attached")  # the builder's own mapping counts
        return attached

    # -- reclamation -----------------------------------------------------------

    def _prune_refs(self, digest: str) -> int:
        """Drop ref files of dead pids; returns the live-ref count."""
        rdir = refs_dir(self.root, digest)
        if not rdir.is_dir():
            return 0
        live = 0
        for path in rdir.glob("*.ref"):
            try:
                pid = int(path.stem)
            except ValueError:
                path.unlink(missing_ok=True)
                continue
            if pid_alive(pid):
                live += 1
            else:
                path.unlink(missing_ok=True)
        return live

    def reap(self, digest: str, *, metrics: MetricsRegistry | None = None,
             leases: LeaseTable | None = None) -> int:
        """Unlink ``digest``'s segment if nothing live references it.

        Returns the bytes reclaimed (0 when the segment is still in use,
        contended, or already gone).  Serialised against builders and
        other reapers by the same lease that arbitrates builds.
        """
        reg = metrics if metrics is not None else global_registry()
        table = leases if leases is not None else self._leases()
        if not table.acquire(digest):
            return 0
        try:
            if self._prune_refs(digest) > 0:
                return 0
            m = read_manifest(self.root, digest)
            freed = 0
            if m is not None:
                if seg.unlink_segment(m.segment):
                    freed = m.nbytes
                manifest_path(self.root, digest).unlink(missing_ok=True)
            rdir = refs_dir(self.root, digest)
            if rdir.is_dir():
                try:
                    rdir.rmdir()
                except OSError:
                    pass
            if freed:
                reg.inc("plane.reclaimed")
                reg.inc("plane.reclaimed_bytes", freed)
            return freed
        finally:
            table.release(digest)

    def shutdown(self) -> None:
        """Process exit: drop our refs, unmap, reap what became orphaned.

        Fork-inherited attachments (``pid`` mismatch) are unmapped but
        their ref files are left alone — they belong to the parent.
        With ``REPRO_PLANE_KEEP`` set the reap is skipped: segments stay
        for later processes on the node (pre-warm flows).
        """
        me = os.getpid()
        keep = keep_on_exit()
        keys = list(self._attached)
        for digest in keys:
            att = self._attached.pop(digest)
            if att.pid == me and att.ref_path is not None:
                att.ref_path.unlink(missing_ok=True)
            try:
                att.shm.close()
            except BufferError:  # views still referenced at interpreter exit
                pass
            if att.pid == me and not keep:
                try:
                    self.reap(digest)
                except OSError:  # pragma: no cover - exit must not raise
                    pass


#: Runtimes by plane root — tests repoint ``REPRO_PLANE_DIR`` freely, and
#: each root keeps its own attachment table.
_RUNTIMES: dict[Path, PlaneRuntime] = {}
_ATEXIT_REGISTERED = False


def runtime(root: Path | None = None) -> PlaneRuntime:
    """The process's runtime for ``root`` (default: the env-derived root)."""
    global _ATEXIT_REGISTERED
    path = Path(root) if root is not None else plane_root()
    rt = _RUNTIMES.get(path)
    if rt is None:
        rt = _RUNTIMES[path] = PlaneRuntime(root=path)
        if not _ATEXIT_REGISTERED:
            _ATEXIT_REGISTERED = True
            atexit.register(_shutdown_all)
    return rt


def _shutdown_all() -> None:
    for rt in list(_RUNTIMES.values()):
        rt.shutdown()


def ensure_assets(key: AssetKey, builder: Callable[[], object], *,
                  metrics: MetricsRegistry | None = None):
    """Module-level :meth:`PlaneRuntime.ensure` on the env-derived root."""
    return runtime().ensure(key, builder, metrics=metrics)


# -- node-level maintenance -----------------------------------------------


def plane_gc(root: Path | None = None, *,
             metrics: MetricsRegistry | None = None) -> dict:
    """Reap every reclaimable segment under ``root``; returns stats.

    Run by ``repro plane gc`` and CI's orphan-leak check: prunes dead-pid
    refs, unlinks segments with no live references (crashed owners
    included), and removes manifest-less orphan segments left by a crash
    between create and publish.
    """
    rt = runtime(root)
    reg = metrics if metrics is not None else global_registry()
    stats = {"segments": 0, "reclaimed": 0, "reclaimed_bytes": 0,
             "kept": 0, "orphans": 0}
    manifests = list_manifests(rt.root)
    published = {m.segment for m in manifests}
    for m in manifests:
        stats["segments"] += 1
        freed = rt.reap(m.key, metrics=reg)
        if freed:
            stats["reclaimed"] += 1
            stats["reclaimed_bytes"] += freed
        elif read_manifest(rt.root, m.key) is not None:
            stats["kept"] += 1
    shm_dir = Path("/dev/shm")
    if shm_dir.is_dir():
        for path in shm_dir.glob(f"{seg.SEGMENT_PREFIX}*"):
            if path.name not in published and "probe" not in path.name:
                if seg.unlink_segment(path.name):
                    stats["orphans"] += 1
                    reg.inc("plane.reclaimed")
    return stats


def plane_stats(root: Path | None = None) -> dict:
    """Inventory of the plane at ``root`` (the ``plane stats`` body)."""
    rt = runtime(root)
    entries = []
    total = 0
    for m in list_manifests(rt.root):
        live = rt._prune_refs(m.key)
        total += m.nbytes
        entries.append({
            "key": m.key,
            "region_code": m.asset.region_code,
            "scale": m.asset.scale,
            "seed": m.asset.seed,
            "truth_days": m.asset.truth_days,
            "segment": m.segment,
            "nbytes": m.nbytes,
            "owner_pid": m.owner_pid,
            "owner_alive": pid_alive(m.owner_pid),
            "live_refs": live,
        })
    return {"root": str(rt.root), "segments": entries,
            "total_bytes": total,
            "available": rt.available(),
            "disabled_reason": rt.disabled_reason()}
