"""Durable checkpoint storage through the CAS, plus the resume plan.

Snapshots are published as ordinary content-store blobs under the
``checkpoint/v1`` family, named by a derived content key over
``(instance cache key, tick)`` — so every integrity property result blobs
enjoy (atomic publish, SHA-256 digest verified on read, corrupt blobs
quarantined and served as misses) applies to checkpoints for free.  A
small per-instance pointer journal (``<store>/checkpoints/<key>.jsonl``,
append-only: ``{"tick": t}`` per write, ``{"drop": t}`` per invalidation,
a torn tail costs that one snapshot) lists the ticks written.  Only the
newest :data:`RETAINED` are kept — a write is publish blob → append line
→ unlink older blobs, so a crash between any two steps leaves at worst an
orphan blob for the LRU gc; resume (:meth:`CheckpointManager.resume_points`)
walks them newest first, falling back past invalid blobs to the older
snapshot and finally to tick 0.

Checkpoint writes double as the **lease heartbeat**: long instances
outlive the :class:`~repro.store.cas.LeaseTable` stale-break TTL, so the
executing worker re-stamps the instance's lease record from its writes
(at most once per quarter TTL), keeping slow-but-alive holders from being
stolen while dead holders still are.

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
from typing import Iterator, Mapping

import numpy as np

from ..obs.registry import MetricsRegistry, Stopwatch
from ..store.cas import (
    CHECKPOINT_FAMILY,
    ContentStore,
    LeaseTable,
    lease_dir,
)
from ..store.files import open_journal, read_jsonl
from ..store.ledger import RunLedger

#: Key family label of checkpoint blobs in the CAS (``repro store stats``
#: breaks the population down by family; gc exempts fresh members —
#: defined next to the gc exemption so the two cannot drift).
CHECKPOINT_NAMESPACE = CHECKPOINT_FAMILY

#: Store-root subdirectory holding the per-instance tick pointers.
CHECKPOINT_DIRNAME = "checkpoints"

#: Snapshots kept per instance.  Two is the minimum that leaves a group a
#: common tick to resume from when a crash lands between two lanes' writes.
RETAINED = 2

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
        store_root: CAS directory snapshots are written through; its
            lease table (:func:`~repro.store.cas.lease_dir`) takes the
            heartbeats.
        every: checkpoint interval in ticks; ``0`` disables checkpointing
            entirely (the tick loop runs unchanged).
        salt: code-version salt for deriving instance cache keys inside
            workers (None = resolve from the worker's own source tree).
        ledger_path: run-ledger file checkpoint events append to (None =
            no ledger events; pool workers append concurrently, one
            flushed line per event, the same discipline every ledger uses).
    """

    store_root: str
    every: int
    salt: str | None = None
    ledger_path: str | None = None

    @property
    def enabled(self) -> bool:
        """Whether this plan checkpoints at all."""
        return self.every > 0 and bool(self.store_root)

    def manager(self, *,
                metrics: MetricsRegistry | None = None) -> "CheckpointManager":
        """Open a manager over this plan's store (one per executor)."""
        return CheckpointManager(self, metrics=metrics)


def checkpoint_plan(store: ContentStore | None, every: int, *,
                    salt: str | None = None,
                    ledger: str | None = None) -> CheckpointPlan | None:
    """The plan ``--checkpoint-every N`` implies (None when N is 0):
    snapshots in ``store``'s CAS, heartbeats in its lease table, events
    in the run's ``ledger``.  The one ``CheckpointPlan`` construction."""
    if every <= 0:
        return None
    if store is None:
        raise ValueError(
            "--checkpoint-every needs the result store (drop --no-cache)")
    return CheckpointPlan(
        store_root=str(store.root), every=every, salt=salt,
        ledger_path=ledger)


class CheckpointManager:
    """Reads and writes one instance's checkpoint chain through the CAS."""

    def __init__(self, plan: CheckpointPlan, *,
                 metrics: MetricsRegistry | None = None) -> None:
        self.plan = plan
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Unbounded handle: checkpoint writes must never trigger the LRU
        # gc from inside a worker (the owning store enforces its bound).
        self.store = ContentStore(Path(plan.store_root))
        # Heartbeats re-stamp the store's own lease table; a key nobody
        # holds a lease on is skipped by renew().
        self._leases = LeaseTable(lease_dir(plan.store_root))
        self._ledger: RunLedger | None = None
        # Per key, while this manager is its writer: the un-dropped ticks
        # (read from the journal once) and a clock since the last heartbeat.
        self._chain: dict[str, list[int]] = {}
        self._renewed: dict[str, Stopwatch] = {}
        for name in CHECKPOINT_COUNTERS:
            self.metrics.counter(f"checkpoint.{name}")

    # -- pointer journal -------------------------------------------------------

    def pointer_path(self, instance_key: str) -> Path:
        """The per-instance tick-pointer journal."""
        return self.store.root / CHECKPOINT_DIRNAME / f"{instance_key}.jsonl"

    def _journal(self, instance_key: str, op: str, tick: int) -> None:
        with open_journal(self.pointer_path(instance_key)) as fh:
            fh.write(json.dumps({op: int(tick)}) + "\n")

    def _journaled(self, instance_key: str) -> list[int]:
        """Every tick written and not since dropped, ascending.

        A chain is a prefix of one execution: a write at tick t after a
        restart from further back supersedes whatever an earlier attempt
        listed beyond t (the re-execution re-lists those as it gets there).
        """
        live: set[int] = set()
        for record in read_jsonl(self.pointer_path(instance_key)):
            if isinstance(tick := record.get("tick"), int):
                live = {t for t in live if t < tick} | {tick}
            elif isinstance(record.get("drop"), int):
                live.discard(record["drop"])
        return sorted(live)

    def ticks(self, instance_key: str) -> list[int]:
        """The newest :data:`RETAINED` un-dropped ticks, ascending."""
        return self._journaled(instance_key)[-RETAINED:]

    def latest_tick(self, instance_key: str) -> int | None:
        """Newest recorded snapshot tick (no blob validation)."""
        ticks = self.ticks(instance_key)
        return ticks[-1] if ticks else None

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

        Blob, then journal line, then the blobs that fell out of the
        newest :data:`RETAINED` are unlinked — a tick is never listed
        before its blob exists nor pruned before its successor is listed.
        Also the lease heartbeat: the instance's lease record is
        re-stamped (at most once per quarter TTL) so a long run is not
        stolen mid-flight by a contender reading a lapsed TTL.
        """
        blob_key = checkpoint_blob_key(instance_key, tick)
        path = self.store.put(blob_key, payload,
                              family=CHECKPOINT_NAMESPACE)
        self._journal(instance_key, "tick", tick)
        chain = self._chain.get(instance_key)
        if chain is None:  # first write here: adopt what a past attempt left
            chain = self._journaled(instance_key)
        else:
            chain = [t for t in chain if t < tick] + [int(tick)]
        for old in chain[:-RETAINED]:
            self.store.path_of(checkpoint_blob_key(instance_key, old)).unlink(
                missing_ok=True)
        self._chain[instance_key] = chain[-RETAINED:]
        size = path.stat().st_size
        self.metrics.inc("checkpoint.written")
        self.metrics.inc("checkpoint.bytes", int(size))
        last = self._renewed.get(instance_key)
        if last is None or last.elapsed() >= self._leases.ttl_s / 4:
            self._leases.renew(instance_key)
            self._renewed[instance_key] = Stopwatch()
        self._ledger_event("checkpoint_written", key=instance_key,
                           tick=int(tick), bytes=int(size))
        return blob_key

    def resume_points(
        self, instance_keys: list[str],
    ) -> Iterator[tuple[int, list[dict[str, np.ndarray]]]]:
        """The resume walk: ``(tick, payloads)``, newest first, over the
        ticks common to every key's chain whose blobs all load (a missing
        or corrupt one is invalidated for its key).  The caller stops at
        the first that applies; exhausting the walk means tick 0.
        """
        common = set.intersection(
            *(set(self.ticks(k)) for k in instance_keys))
        for tick in sorted(common, reverse=True):
            payloads = [self.store.get(checkpoint_blob_key(k, tick))
                        for k in instance_keys]
            stale = [k for k, p in zip(instance_keys, payloads) if p is None]
            for k in stale:
                self.invalidate(k, tick)
            if not stale:
                yield tick, payloads

    def invalidate(self, instance_key: str, tick: int) -> None:
        """Drop one snapshot from the chain (unreadable or inapplicable).

        The blob — if still present, e.g. a restore-time format mismatch
        the CAS digest cannot catch — is quarantined for post-mortem, and
        a ``drop`` line takes the tick out of the pointer so later
        resumes go straight to the next-older snapshot.
        """
        self.metrics.inc("checkpoint.invalid")
        path = self.store.path_of(checkpoint_blob_key(instance_key, tick))
        if path.exists():
            self.store._quarantine(path)
        self._journal(instance_key, "drop", tick)
        self._chain.pop(instance_key, None)
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
        for tick in self._journaled(instance_key):
            path = self.store.path_of(checkpoint_blob_key(instance_key, tick))
            try:
                size = path.stat().st_size
                path.unlink()
                reclaimed += size
            except OSError:
                continue
        self.pointer_path(instance_key).unlink(missing_ok=True)
        self._chain.pop(instance_key, None)
        if reclaimed:
            self.metrics.inc("checkpoint.reclaimed_bytes", int(reclaimed))
            self._ledger_event("checkpoint_discarded", key=instance_key,
                               bytes=int(reclaimed))
        return reclaimed
