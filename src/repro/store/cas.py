"""Content-addressed on-disk blob store for simulation results.

Every family — outcomes, summaries, surrogate models, in-flight
checkpoints, region asset bundles — is one uncompressed blob per key
under ``objects/<k[:2]>/<key>.blob`` (two-level fan-out keeps
directories small at hundreds of thousands of objects), in one format:

- an 8-byte magic tag (:data:`BLOB_MAGIC`);
- the SHA-256 of everything after this 32-byte digest field;
- the offset table of :func:`layout` as JSON, behind its 8-byte
  little-endian length;
- zero padding, then each array's bytes at its 64-byte-aligned offset.

:func:`write_blob` hashes and writes each array through a ``memoryview``;
:func:`read_blob` reads the file once (:func:`map_blob` maps it
read-only), checks the one digest and returns dtype-exact views over
that buffer.  Deflate bought nothing here: a 1 KB outcome compresses by
3 %, and a checkpoint is written once and read at most once.  The store
is safe against the failure modes a 30-week nightly pipeline actually
meets:

- **Torn writes** — payloads are written to a temp file in the same
  directory and published with an atomic ``os.replace``
  (:func:`~repro.store.files.atomic_write`); readers never see a
  half-written blob — the temp's ``.tmp`` suffix keeps it out of every
  listing, so another handle's ``gc`` cannot delete it mid-write — and
  concurrent writers of the same key are last-writer-wins with identical
  content.
- **Corrupt blobs** — every blob carries a digest of its own body,
  verified on read; a mismatched, torn, truncated or unrecognised blob is
  quarantined under ``quarantine/`` and treated as a miss, so one bad
  object costs one recomputation (and leaves the evidence behind), not
  an operator intervention.  Files of an older format (``.npz``) are
  never read: they are listed for ``gc``/``clear`` like any other blob
  and age out of the LRU order.
- **Disk growth** — an optional size bound is enforced by LRU eviction on
  access time (reads touch the blob's mtime), with eviction counted in the
  ``store.*`` metrics alongside hits and misses.
- **Concurrent executors** — a :class:`LeaseTable` on the store directory
  is the cross-process in-flight table: before executing a miss (or
  building a region bundle), a process acquires a per-key lease (a
  private temp record hard-linked into place, which fails if the lease
  exists), so two processes racing toward the same key run it once —
  the loser waits for the winner's blob instead of recomputing.  Leases
  are crash-tolerant: a lease whose owner pid is dead, whose TTL has
  lapsed, or whose record is torn mid-write is breakable by any
  contender.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterator, Mapping

import numpy as np

from ..obs.registry import MetricsRegistry
from ..resilience.faults import FaultPlan
from .files import (
    atomic_write,
    make_temp,
    open_journal,
    pid_alive,
    read_jsonl,
    reap_orphan_temps,
)

#: Default size bound (bytes) for the user-level default store.
DEFAULT_MAX_BYTES: int = 4 * 1024**3

#: The registry names one store handle publishes.
_STAT_NAMES = ("hits", "misses", "puts", "evictions", "corrupt")

#: First bytes of every blob; anything else at a blob path is damage.
BLOB_MAGIC = b"REPROBL1"

#: Where a blob keeps the SHA-256 of everything after it.
_DIGEST = slice(len(BLOB_MAGIC), len(BLOB_MAGIC) + 32)

#: Bytes before the offset table: magic, body digest, table length.
_HEAD = _DIGEST.stop + 8

#: Alignment of every array in a blob (bytes): views are dtype-aligned
#: and cache-line friendly whatever the mix of column widths.
ALIGN: int = 64

#: Key family of in-flight simulation checkpoints (written by
#: :mod:`repro.checkpoint`); fresh members are exempt from LRU eviction.
CHECKPOINT_FAMILY = "checkpoint/v1"

#: How long a checkpoint blob stays gc-exempt after its last touch.
#: Matched to the :class:`LeaseTable` default TTL: while the executing
#: worker heartbeats (one checkpoint write per interval), its snapshots
#: stay younger than this and the LRU sweep cannot evict the very blobs
#: a crash recovery is about to need.
CHECKPOINT_EXEMPT_TTL_S = 120.0


class BlobError(ValueError):
    """A file at a blob path that does not decode to what was written."""


def payload_digest(payload: Mapping[str, np.ndarray]) -> np.ndarray:
    """SHA-256 over a payload's names, dtypes, shapes and bytes.

    A content identity independent of any file format: the golden
    outcome file (``tests/golden/generate.py``) pins simulation results
    by it.  Blobs carry their own digest, over the encoded body.
    """
    h = hashlib.sha256()
    for name in sorted(payload):
        arr = np.ascontiguousarray(payload[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(memoryview(arr))
    return np.frombuffer(h.digest(), dtype=np.uint8).copy()


def _aligned(offset: int) -> int:
    return -(-offset // ALIGN) * ALIGN


def layout(arrays: Mapping[str, np.ndarray]) -> list[dict]:
    """The offset table for ``arrays``.

    Entries keep the mapping's iteration order; each records everything
    a reader needs (``name``/``dtype``/``shape``/``offset``/``nbytes``)
    and nothing else, so the table serialises directly into the blob
    header.  Offsets are :data:`ALIGN`-aligned and relative to the first
    array; a 0-d array keeps its empty shape.
    """
    entries: list[dict] = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        offset = _aligned(offset)
        entries.append({
            "name": str(name),
            "dtype": arr.dtype.str,
            "shape": [int(d) for d in arr.shape],
            "offset": offset,
            "nbytes": int(arr.nbytes),
        })
        offset += arr.nbytes
    return entries


def _data_start(table_len: int) -> int:
    """File offset of the first array: the header, aligned up."""
    return _aligned(_HEAD + table_len)


def write_blob(fh: IO[bytes], payload: Mapping[str, np.ndarray], *,
               corrupt: bool = False) -> None:
    """Encode ``payload`` into ``fh`` in the one blob format.

    The body is hashed first and then written, piece by piece, through
    ``memoryview``s of the (C-ordered) arrays — no serialised copy of the
    payload is built.  ``corrupt`` inverts the stored digest (the
    ``cas.corrupt`` fault).  Object and structured arrays are refused:
    the bytes of one are pointers, the fields of the other do not survive
    a ``dtype.str`` round-trip.
    """
    arrays = {str(name): np.asarray(arr, order="C")
              for name, arr in payload.items()}
    for name, arr in arrays.items():
        if arr.dtype.hasobject or np.dtype(arr.dtype.str) != arr.dtype:
            raise TypeError(f"cannot store {name!r} of dtype {arr.dtype}")
    entries = layout(arrays)
    table = json.dumps(entries).encode()
    end = _HEAD + len(table)
    start = _data_start(len(table))
    body: list = [len(table).to_bytes(8, "little"), table]
    for entry, arr in zip(entries, arrays.values()):
        body.append(bytes(start + entry["offset"] - end))
        body.append(memoryview(arr))
        end = start + entry["offset"] + entry["nbytes"]
    h = hashlib.sha256()
    for piece in body:
        h.update(piece)
    digest = h.digest()
    if corrupt:
        digest = bytes(b ^ 0xFF for b in digest)
    fh.write(BLOB_MAGIC)
    fh.write(digest)
    for piece in body:
        fh.write(piece)


def _decode(buf: np.ndarray, name: str) -> dict[str, np.ndarray]:
    """Verify one blob's bytes and return its arrays as views over them."""
    if buf.size < _HEAD or buf[:_DIGEST.start].tobytes() != BLOB_MAGIC:
        raise BlobError(f"{name}: not a blob")
    if (hashlib.sha256(buf[_DIGEST.stop:]).digest()
            != buf[_DIGEST].tobytes()):
        raise BlobError(f"{name}: digest mismatch")
    n = int.from_bytes(buf[_DIGEST.stop:_HEAD].tobytes(), "little")
    start = _data_start(n)
    try:
        return {entry["name"]: np.ndarray(
                    tuple(entry["shape"]), dtype=np.dtype(entry["dtype"]),
                    buffer=buf, offset=start + entry["offset"])
                for entry in json.loads(buf[_HEAD:_HEAD + n].tobytes())}
    except (KeyError, TypeError, ValueError) as exc:
        raise BlobError(f"{name}: bad offset table") from exc


def read_blob(path: Path) -> dict[str, np.ndarray]:
    """Decode and verify one blob: its arrays, as views over one buffer.

    Raises ``FileNotFoundError`` when absent and :class:`BlobError` when
    the file is not a blob, is torn or truncated, or fails its digest.
    """
    return _decode(np.fromfile(path, dtype=np.uint8), path.name)


def map_blob(path: Path) -> dict[str, np.ndarray]:
    """:func:`read_blob` over a read-only mapping of the file.

    The views are read-only and share the page cache with every other
    process mapping the same blob; they stay valid after the file is
    evicted or replaced.  The digest is checked here, once per mapping:
    a process maps a bundle once and then holds it in its asset cache.
    """
    try:
        buf = np.memmap(path, dtype=np.uint8, mode="r")
    except ValueError as exc:  # mmap refuses an empty file
        raise BlobError(f"{path.name}: not a blob") from exc
    return _decode(buf, path.name)


@dataclass
class ContentStore:
    """A content-addressed result store rooted at ``root``.

    Attributes:
        root: store directory (created on first use).
        max_bytes: size bound enforced after each put (None = unbounded).
        metrics: per-handle ``store.*`` counters (disk state is shared
            across handles, counters are not).
        faults: optional fault plan; a firing ``cas.corrupt`` rule makes
            :meth:`put` publish a blob whose digest does not match, so the
            read-side integrity path is exercisable on real runs.
    """

    root: Path
    max_bytes: int | None = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._objects = self.root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._put_seq: Counter = Counter()
        for name in _STAT_NAMES:
            self.metrics.counter(f"store.{name}")

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt blobs are moved for post-mortem inspection."""
        return self.root / "quarantine"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt blob out of the object tree (best effort)."""
        self.metrics.inc("store.corrupt")
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            path.unlink(missing_ok=True)

    def quarantined_keys(self) -> list[str]:
        """Content keys currently held in quarantine (sorted)."""
        return sorted(b.stem for b in self.quarantine_dir.glob("*.blob"))

    def path_of(self, key: str) -> Path:
        """On-disk location of ``key`` (whether or not it exists)."""
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"not a hex content key: {key!r}")
        return self._objects / key[:2] / f"{key}.blob"

    def contains(self, key: str) -> bool:
        """Whether a blob for ``key`` is present (does not count as a hit)."""
        return self.path_of(key).exists()

    def get(self, key: str, *,
            mapped: bool = False) -> dict[str, np.ndarray] | None:
        """Load and verify a payload, or None on miss.

        Integrity is checked against the digest :meth:`put` wrote over the
        blob's body; a mismatched, torn, truncated or unrecognised blob is
        quarantined and reads as a miss, so corruption costs one
        recomputation instead of propagating bad arrays downstream.  Hits
        refresh LRU recency and return dtype-exact views over one buffer
        read from disk — or, with ``mapped``, read-only views over a
        mapping of the file (:func:`map_blob`).
        """
        path = self.path_of(key)
        try:
            payload = map_blob(path) if mapped else read_blob(path)
        except FileNotFoundError:
            self.metrics.inc("store.misses")
            return None
        except (OSError, BlobError):
            self._quarantine(path)
            self.metrics.inc("store.misses")
            return None
        try:
            os.utime(path, None)
        except FileNotFoundError:
            pass  # gc'd or evicted since the read: the payload is verified
        self.metrics.inc("store.hits")
        return payload

    def put(self, key: str, payload: Mapping[str, np.ndarray], *,
            family: str | None = None) -> Path:
        """Atomically publish a payload under ``key``, digest included.

        An existing blob is left untouched (content-addressed: same key,
        same bytes), so concurrent writers race harmlessly.  The blob
        carries the digest of its body so :meth:`get` can verify
        integrity; a firing ``cas.corrupt`` fault inverts the stored
        digest, planting a corruption the read path must catch.

        Args:
            key: hex content key.
            payload: named arrays to store.
            family: optional key-family label (e.g. the key namespace the
                producer salted into the hash); recorded in the store's
                family index so ``repro store stats`` can break the blob
                population down by producer.
        """
        path = self.path_of(key)
        if path.exists():
            if family is not None and key not in self._family_index():
                self._append_family(key, family)
            return path
        corrupt = False
        if self.faults is not None:
            # Re-puts of a quarantined key advance the rule's attempt
            # count, so a times-bounded corruption heals on rewrite.
            attempt = self._put_seq[key]
            self._put_seq[key] += 1
            corrupt = self.faults.fires("cas.corrupt", key, attempt)
            if corrupt:
                self.metrics.inc("faults.cas.corrupt")
        with atomic_write(path, "wb") as fh:
            write_blob(fh, payload, corrupt=corrupt)
        self.metrics.inc("store.puts")
        if family is not None:
            self._append_family(key, family)
        if self.max_bytes is not None:
            self.gc(self.max_bytes)
        return path

    # -- key families ----------------------------------------------------------

    @property
    def family_path(self) -> Path:
        """The append-only ``{key, family}`` JSONL index."""
        return self.root / "families.jsonl"

    def _append_family(self, key: str, family: str) -> None:
        """Record one key→family assignment (append-only, last wins)."""
        with open_journal(self.family_path) as fh:
            fh.write(json.dumps({"key": key, "family": family}) + "\n")

    def _family_index(self) -> dict[str, str]:
        """Current key→family map (torn and malformed lines tolerated)."""
        return {rec["key"]: rec["family"]
                for rec in read_jsonl(self.family_path)
                if "key" in rec and "family" in rec}

    def family_counts(self) -> dict[str, int]:
        """Live blob counts per key family (sorted by family name).

        Only blobs still on disk are counted — collected or cleared keys
        drop out even though the index line remains.  Blobs written
        without a family label are grouped under ``"(unlabelled)"``.
        """
        index = self._family_index()
        counts: Counter = Counter()
        for key in self.keys():
            counts[index.get(key, "(unlabelled)")] += 1
        return dict(sorted(counts.items()))

    def _blobs(self) -> Iterator[Path]:
        """Every published file under ``objects/??/``, legacy ``.npz``
        included (so gc and clear age them out).  In-flight writes are
        ``.tmp`` files in the same directories and are skipped."""
        return (p for p in self._objects.glob("??/*") if p.suffix != ".tmp")

    def keys(self) -> Iterator[str]:
        """All stored content keys (readable ``.blob`` files only)."""
        for blob in self._blobs():
            if blob.suffix == ".blob":
                yield blob.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def total_bytes(self) -> int:
        """Bytes consumed by stored blobs."""
        return sum(b.stat().st_size for b in self._blobs())

    def _reap_temps(self) -> None:
        """Remove temps left by writers killed mid-``put`` or
        mid-:meth:`LeaseTable.acquire` (their pid is dead)."""
        reap_orphan_temps([*self._objects.glob("??"), lease_dir(self.root)])

    def gc(self, max_bytes: int | None = None) -> list[str]:
        """Evict least-recently-used blobs until under ``max_bytes``.

        Orphaned temps go first (:meth:`_reap_temps`).  Returns the
        removed keys (oldest first).
        """
        bound = self.max_bytes if max_bytes is None else max_bytes
        if bound is None:
            raise ValueError("gc needs a size bound")
        self._reap_temps()
        index = self._family_index()
        now = time.time()
        blobs = []
        exempt_bytes = 0
        for blob in self._blobs():
            st = blob.stat()
            # In-flight checkpoints are not eviction fodder: losing one
            # turns a cheap resume into a tick-0 re-execution.  They still
            # count toward the bound (disk is disk); once the instance
            # finishes they are discarded outright, and once abandoned
            # (older than the lease TTL) they rejoin the LRU order.
            if (index.get(blob.stem) == CHECKPOINT_FAMILY
                    and now - st.st_mtime <= CHECKPOINT_EXEMPT_TTL_S):
                exempt_bytes += st.st_size
                continue
            blobs.append((st.st_mtime, st.st_size, blob))
        total = exempt_bytes + sum(size for _, size, _ in blobs)
        removed: list[str] = []
        for _mtime, size, blob in sorted(blobs):
            if total <= bound:
                break
            blob.unlink(missing_ok=True)
            total -= size
            removed.append(blob.stem)
            self.metrics.inc("store.evictions")
        return removed

    def clear(self) -> int:
        """Delete every blob and every orphaned temp.  Returns how many
        blobs were removed."""
        self._reap_temps()
        removed = 0
        for blob in self._blobs():
            blob.unlink(missing_ok=True)
            removed += 1
        return removed

    def summary(self) -> str:
        """One-line disk + counter summary (the CLI ``store stats`` body)."""
        n = len(self)
        size = self.total_bytes()
        bound = "unbounded" if self.max_bytes is None else f"{self.max_bytes:,}"
        m = self.metrics
        return (f"{self.root}: {n} blobs, {size:,} bytes (bound {bound}); "
                f"session hits {int(m.value('store.hits'))} "
                f"misses {int(m.value('store.misses'))} "
                f"puts {int(m.value('store.puts'))} "
                f"evictions {int(m.value('store.evictions'))} "
                f"corrupt {int(m.value('store.corrupt'))}")


def lease_dir(store_root: str | Path) -> Path:
    """The store's lease table directory, ``<store>/leases``."""
    return Path(store_root) / "leases"


#: Outcomes of :meth:`LeaseTable.wait`.
LEASE_DONE = "done"  #: the awaited artefact appeared
LEASE_VACATED = "vacated"  #: the holder released (or was broken) first
LEASE_TIMEOUT = "timeout"  #: neither happened within the deadline


@dataclass
class LeaseTable:
    """Cross-process in-flight execution table on a shared directory.

    One lease file per content key under ``root``; holding the lease means
    "I am computing this key right now".  Acquisition writes the record
    to a private temp file and hard-links it to the lease path; the link
    fails when the lease exists, so exactly one process wins a race.  The
    table at :func:`lease_dir` is the cross-process coalescing primitive:
    every ``repro serve`` process (and any memoized fan-out pointed at the
    same store) acquires before executing a miss or building a region
    bundle, and contenders that lose the race wait for the winner's blob
    instead of duplicating work.
    Checkpoint writes renew the lease of the instance they snapshot (the
    heartbeat that keeps a long run from reading as stale).

    Liveness never depends on the holder behaving: a lease is *stale* —
    and breakable by anyone — when its owner pid is dead (same-host
    check), its TTL has lapsed, or its record is torn/unparseable (the
    crash-mid-write case, handled exactly like a torn ledger line).

    Attributes:
        root: the lease directory (shared across processes).
        owner: identity stamped into acquired leases (diagnostics).
        ttl_s: staleness bound on lease age.
        poll_s: sleep between :meth:`wait` checks.
        metrics: ``lease.*`` counters (acquired/busy/broken/waits).
    """

    root: Path
    owner: str = ""
    ttl_s: float = 120.0
    poll_s: float = 0.01
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        if not self.owner:
            self.owner = f"pid:{os.getpid()}"

    def path_of(self, key: str) -> Path:
        """On-disk lease file for ``key``."""
        return self.root / f"{key}.lease"

    # -- acquisition -----------------------------------------------------------

    def acquire(self, key: str) -> bool:
        """Try to take the lease for ``key``; True when this process owns it.

        A held-but-stale lease is broken and re-contended (bounded
        retries, so two breakers racing cannot loop forever).  The
        record is published atomically — written in full to a private
        temp file, then hard-linked into place — so a contender never
        observes a half-written lease (which would read as torn, i.e.
        stale, and let two contenders win the same race).
        """
        record = json.dumps({"owner": self.owner, "pid": os.getpid(),
                             "ts": time.time()})
        path = self.path_of(key)
        fd, tmp = make_temp(self.root)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(record)
                fh.flush()
            for _ in range(8):
                try:
                    os.link(tmp, path)  # atomic: fails if the lease exists
                except FileExistsError:
                    holder = self.holder(key)
                    if holder is None:
                        continue  # released between exists and read: re-race
                    if self._stale(holder):
                        self._break(key)
                        continue
                    self.metrics.inc("lease.busy")
                    return False
                self.metrics.inc("lease.acquired")
                return True
            self.metrics.inc("lease.busy")
            return False
        finally:
            os.unlink(tmp)

    def renew(self, key: str) -> bool:
        """Heartbeat: re-stamp the lease's timestamp, keeping its holder.

        Called from the process actually executing the key (a pool worker
        writing a checkpoint), which is generally *not* the lease owner
        (the broker's memoized fan-out acquired it) — so unlike
        :meth:`release` this deliberately rewrites another owner's record,
        preserving its ``owner``/``pid`` fields.  A slow-but-alive
        instance thereby outlives the TTL stale-break, while a holder
        whose pid is dead stays breakable regardless of freshness (the
        pid liveness check runs whenever the TTL has not lapsed).
        """
        path = self.path_of(key)
        holder = self.holder(key)
        if not holder:
            return False  # free or torn: nothing worth re-stamping
        try:
            with atomic_write(path) as fh:
                json.dump({**holder, "ts": time.time()}, fh)
        except OSError:
            return False
        self.metrics.inc("lease.renewed")
        return True

    def release(self, key: str) -> bool:
        """Drop the lease if this table's owner holds it (lock hygiene:
        never unlink another process's live lease)."""
        holder = self.holder(key)
        if holder is None or holder.get("owner") != self.owner:
            return False
        self.path_of(key).unlink(missing_ok=True)
        return True

    def _break(self, key: str) -> None:
        """Remove a stale lease (best effort; breakers may race)."""
        self.metrics.inc("lease.broken")
        self.path_of(key).unlink(missing_ok=True)

    # -- inspection ------------------------------------------------------------

    def holder(self, key: str) -> dict | None:
        """The lease record, ``{}`` when torn/unparseable, None when free."""
        try:
            text = self.path_of(key).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            return {}
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            return {}  # torn mid-write: breakable, like a torn ledger line
        return record if isinstance(record, dict) else {}

    def held(self, key: str) -> bool:
        """Whether a live (non-stale) lease exists for ``key``."""
        holder = self.holder(key)
        return holder is not None and not self._stale(holder)

    def _stale(self, record: dict) -> bool:
        """A lease nobody should keep waiting on."""
        pid = record.get("pid")
        ts = record.get("ts")
        if not isinstance(pid, int) or not isinstance(ts, (int, float)):
            return True  # torn or malformed record
        if time.time() - ts > self.ttl_s:
            return True
        return not pid_alive(pid)  # owner died without releasing

    # -- waiting ---------------------------------------------------------------

    def wait(self, key: str, done: Callable[[], bool], *,
             timeout_s: float | None = None) -> str:
        """Block until ``done()`` or the lease vacates; returns the outcome.

        ``LEASE_DONE`` when the predicate turned true (the usual case: the
        holder published its blob), ``LEASE_VACATED`` when the lease was
        released or broken without the predicate turning true (the holder
        failed — the caller should contend for the lease itself), or
        ``LEASE_TIMEOUT``.
        """
        watch_t0 = time.time()
        self.metrics.inc("lease.waits")
        while True:
            if done():
                self.metrics.observe("lease.wait_s", time.time() - watch_t0)
                return LEASE_DONE
            holder = self.holder(key)
            if holder is None:
                self.metrics.observe("lease.wait_s", time.time() - watch_t0)
                return LEASE_VACATED
            if self._stale(holder):
                self._break(key)
                self.metrics.observe("lease.wait_s", time.time() - watch_t0)
                return LEASE_VACATED
            if timeout_s is not None and time.time() - watch_t0 > timeout_s:
                self.metrics.observe("lease.wait_s", time.time() - watch_t0)
                return LEASE_TIMEOUT
            time.sleep(self.poll_s)


def default_store() -> ContentStore:
    """The user-level store: ``REPRO_STORE_DIR`` or ``~/.cache/repro/store``.

    The size bound comes from ``REPRO_STORE_MAX_BYTES`` (default 4 GiB).
    """
    root = os.environ.get("REPRO_STORE_DIR")
    path = Path(root) if root else Path.home() / ".cache" / "repro" / "store"
    max_bytes = int(os.environ.get("REPRO_STORE_MAX_BYTES", DEFAULT_MAX_BYTES))
    return ContentStore(path, max_bytes=max_bytes)


def open_store(directory: str | os.PathLike | None = None, *,
               no_cache: bool = False,
               faults: FaultPlan | None = None) -> ContentStore | None:
    """The store ``--store-dir`` / ``--dir`` names (unbounded), else
    :func:`default_store`; None under ``--no-cache``.  The CLI and
    :func:`~repro.service.server.build_service` both open stores here."""
    if no_cache:
        return None
    store = (ContentStore(Path(directory)) if directory
             else default_store())
    store.faults = faults
    return store
