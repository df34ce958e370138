"""Durable checkpoint storage through the CAS, plus the resume plan.

Snapshots are published as ordinary content-store blobs under the
``checkpoint/v1`` family, named by a derived content key over
``(instance cache key, tick)`` — so every integrity property result blobs
enjoy (atomic publish, SHA-256 digest verified on read, corrupt blobs
quarantined and served as misses) applies to checkpoints for free.  A
small per-instance pointer file (``<store>/checkpoints/<key>.json``,
atomically replaced) lists the ticks written; resume walks it newest
first, falling back past invalid blobs to older snapshots and finally to
tick 0.

Every checkpoint write doubles as a **lease heartbeat**: long instances
outlive the :class:`~repro.store.cas.LeaseTable` stale-break TTL, so the
executing worker re-stamps the instance's lease record on each write,
keeping slow-but-alive holders from being stolen while dead holders still
are.

:class:`CheckpointPlan` is the picklable knob bundle the execution plane
threads from the CLI down into pool workers; workers derive the instance
cache key themselves (the code-version salt rides in the plan so parent
and worker agree even across source-tree divergence).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from ..obs.registry import MetricsRegistry
from ..store.cas import CHECKPOINT_FAMILY, ContentStore, LeaseTable
from ..store.files import atomic_write, read_json
from ..store.ledger import RunLedger

#: Key family label of checkpoint blobs in the CAS (``repro store stats``
#: breaks the population down by family; gc exempts fresh members —
#: defined next to the gc exemption so the two cannot drift).
CHECKPOINT_NAMESPACE = CHECKPOINT_FAMILY

#: Store-root subdirectory holding the per-instance tick pointers.
CHECKPOINT_DIRNAME = "checkpoints"

#: Counters this layer publishes (under ``checkpoint.``).
CHECKPOINT_COUNTERS = ("written", "resumed", "bytes", "invalid",
                      "ticks_saved", "reclaimed_bytes")


def checkpoint_blob_key(instance_key: str, tick: int) -> str:
    """Content key of the snapshot of ``instance_key`` at ``tick``."""
    h = hashlib.sha256()
    h.update(CHECKPOINT_NAMESPACE.encode())
    h.update(b"\n")
    h.update(instance_key.encode())
    h.update(b"\n")
    h.update(str(int(tick)).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class CheckpointPlan:
    """Picklable checkpoint configuration threaded through the fan-out.

    Attributes:
        store_root: CAS directory snapshots are written through.
        every: checkpoint interval in ticks; ``0`` disables checkpointing
            entirely (the tick loop runs unchanged).
        salt: code-version salt for deriving instance cache keys inside
            workers (None = resolve from the worker's own source tree).
        lease_root: lease-table directory heartbeats re-stamp (None =
            no heartbeats).
        ledger_path: run-ledger file checkpoint events append to (None =
            no ledger events; pool workers append concurrently, one
            flushed line per event, the same discipline shard spools use).
    """

    store_root: str
    every: int
    salt: str | None = None
    lease_root: str | None = None
    ledger_path: str | None = None

    @property
    def enabled(self) -> bool:
        """Whether this plan checkpoints at all."""
        return self.every > 0 and bool(self.store_root)

    def manager(self, *,
                metrics: MetricsRegistry | None = None) -> "CheckpointManager":
        """Open a manager over this plan's store (one per executor)."""
        return CheckpointManager(self, metrics=metrics)


class CheckpointManager:
    """Reads and writes one instance's checkpoint chain through the CAS."""

    def __init__(self, plan: CheckpointPlan, *,
                 metrics: MetricsRegistry | None = None) -> None:
        self.plan = plan
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Unbounded handle: checkpoint writes must never trigger the LRU
        # gc from inside a worker (the owning store enforces its bound).
        self.store = ContentStore(Path(plan.store_root))
        self._leases = (LeaseTable(Path(plan.lease_root))
                        if plan.lease_root else None)
        self._ledger: RunLedger | None = None
        for name in CHECKPOINT_COUNTERS:
            self.metrics.counter(f"checkpoint.{name}")

    # -- pointer file ----------------------------------------------------------

    def pointer_path(self, instance_key: str) -> Path:
        """The per-instance tick-pointer file."""
        return self.store.root / CHECKPOINT_DIRNAME / f"{instance_key}.json"

    def ticks(self, instance_key: str) -> list[int]:
        """Ticks with a recorded snapshot, ascending ([] when none)."""
        record = read_json(self.pointer_path(instance_key)) or {}
        try:
            return sorted({int(t) for t in record["ticks"]})
        except (ValueError, TypeError, KeyError):
            return []

    def latest_tick(self, instance_key: str) -> int | None:
        """Newest recorded snapshot tick (no blob validation)."""
        ticks = self.ticks(instance_key)
        return ticks[-1] if ticks else None

    def _write_pointer(self, instance_key: str, ticks: list[int]) -> None:
        """Atomically replace the pointer (readers never see a torn file)."""
        with atomic_write(self.pointer_path(instance_key)) as fh:
            json.dump({"instance": instance_key, "ticks": ticks}, fh,
                      sort_keys=True)

    # -- events ----------------------------------------------------------------

    def _ledger_event(self, event: str, **fields) -> None:
        if self.plan.ledger_path is None:
            return
        if self._ledger is None:
            self._ledger = RunLedger(self.plan.ledger_path)
        self._ledger.append(event, **fields)

    # -- write / read ----------------------------------------------------------

    def write(self, instance_key: str, payload: Mapping[str, np.ndarray], *,
              tick: int) -> str:
        """Publish one snapshot; returns its blob key.

        Also the lease heartbeat: the instance's lease record is
        re-stamped so a long run is not stolen mid-flight by a contender
        reading a lapsed TTL.
        """
        blob_key = checkpoint_blob_key(instance_key, tick)
        path = self.store.put(blob_key, payload,
                              family=CHECKPOINT_NAMESPACE)
        ticks = self.ticks(instance_key)
        if tick not in ticks:
            ticks = sorted(ticks + [int(tick)])
            self._write_pointer(instance_key, ticks)
        size = path.stat().st_size
        self.metrics.inc("checkpoint.written")
        self.metrics.inc("checkpoint.bytes", int(size))
        if self._leases is not None:
            self._leases.renew(instance_key)
        self._ledger_event("checkpoint_written", key=instance_key,
                           tick=int(tick), bytes=int(size))
        return blob_key

    def load_latest(
        self, instance_key: str,
    ) -> tuple[int, dict[str, np.ndarray]] | None:
        """Newest *valid* snapshot as ``(tick, payload)``, or None.

        Walks the pointer newest-first; a missing or corrupt blob (the
        CAS quarantines it) counts as ``checkpoint.invalid`` and falls
        back to the next-older snapshot, then to None — the tick-0
        restart the supervisor always had.
        """
        for tick in reversed(self.ticks(instance_key)):
            payload = self.store.get(checkpoint_blob_key(instance_key, tick))
            if payload is None:
                self.invalidate(instance_key, tick)
                continue
            return tick, payload
        return None

    def invalidate(self, instance_key: str, tick: int) -> None:
        """Drop one snapshot from the chain (unreadable or inapplicable).

        The blob — if still present, e.g. a restore-time format mismatch
        the CAS digest cannot catch — is quarantined for post-mortem, and
        the tick leaves the pointer so later resumes go straight to the
        next-older snapshot.
        """
        self.metrics.inc("checkpoint.invalid")
        path = self.store.path_of(checkpoint_blob_key(instance_key, tick))
        if path.exists():
            self.store._quarantine(path)
        remaining = [t for t in self.ticks(instance_key) if t != int(tick)]
        self._write_pointer(instance_key, remaining)
        self._ledger_event("checkpoint_invalid", key=instance_key,
                           tick=int(tick))

    def resumed(self, instance_key: str, tick: int, *,
                attempt: int = 0) -> None:
        """Account one successful resume (``tick`` ticks of work saved)."""
        self.metrics.inc("checkpoint.resumed")
        self.metrics.inc("checkpoint.ticks_saved", int(tick))
        self._ledger_event("checkpoint_resumed", key=instance_key,
                           tick=int(tick), attempt=int(attempt))

    def discard(self, instance_key: str) -> int:
        """Delete an instance's checkpoints; returns bytes reclaimed.

        Called once the terminal result blob is durable in the CAS —
        snapshots of a finished instance are pure disk overhead.
        """
        reclaimed = 0
        for tick in self.ticks(instance_key):
            path = self.store.path_of(checkpoint_blob_key(instance_key, tick))
            try:
                size = path.stat().st_size
                path.unlink()
                reclaimed += size
            except OSError:
                continue
        self.pointer_path(instance_key).unlink(missing_ok=True)
        if reclaimed:
            self.metrics.inc("checkpoint.reclaimed_bytes", int(reclaimed))
            self._ledger_event("checkpoint_discarded", key=instance_key,
                               bytes=int(reclaimed))
        return reclaimed
