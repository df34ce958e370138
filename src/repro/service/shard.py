"""Shard workers: independent broker/worker processes behind one door.

One :class:`ShardWorker` process runs a full single-process service —
admission queue, broker, supervised memoized fan-out, ``/v1`` HTTP
surface — bound to an ephemeral localhost port it advertises through a
port file.  A :class:`ShardFleet` spawns ``N`` of them against one
shared :class:`~repro.store.cas.ContentStore`; the router
(:mod:`repro.service.router`) fronts them.

Correctness across processes rests on three shared-directory artifacts,
all under the store root so one ``REPRO_STORE_DIR`` configures the whole
fleet:

- the **CAS** itself (results are content-addressed blobs; any shard's
  hit is every shard's hit);
- the **lease table** (``<store>/leases``) — the cross-process in-flight
  registry that keeps coalescing correct even when routing sends the
  same key to two shards (reroute during a drain, router restart):
  exactly one shard executes, the others wait and read the winner's
  bit-identical blob;
- the **terminal spool** (``<store>/spool/shard<k>.jsonl``) — each shard
  journals every request that reaches a terminal state using the
  ledger's torn-line-tolerant append discipline, so the router can keep
  answering status polls for a shard that has exited (rolling restart:
  zero lost requests).

Routing is by cache-key hash — ``int(key, 16) % num_shards`` — so
identical scenarios land on the same shard and coalesce in-process by
construction; the lease table only has to catch the cross-shard edge
cases.  Request ids carry the shard index (``s<k>-r000042``), making
them globally unique and self-addressing.

Shard processes are spawned (not forked) and non-daemonic: their brokers
own process pools, and daemonic processes cannot have children.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..obs.registry import Stopwatch
from ..store.cas import ContentStore, LeaseTable
from ..store.files import atomic_write, read_json, read_jsonl
from ..store.ledger import RunLedger
from .queue import RequestRecord

#: Subdirectories of the store root the fleet shares.
LEASE_DIRNAME = "leases"
SPOOL_DIRNAME = "spool"

#: The spool's one event type.
SPOOL_EVENT = "request_terminal"


def shard_of(key: str, num_shards: int) -> int:
    """The owning shard of a cache key: ``int(key, 16) % num_shards``."""
    return int(key, 16) % num_shards


def rid_shard(request_id: str) -> int | None:
    """Parse the owning shard out of a fleet request id (``s<k>-...``).

    Returns None for ids without a shard prefix (single-process mode).
    """
    if not request_id.startswith("s"):
        return None
    head, sep, _ = request_id.partition("-")
    if not sep:
        return None
    try:
        return int(head[1:])
    except ValueError:
        return None


def lease_dir(store_root: Path) -> Path:
    """The fleet's shared lease table directory."""
    return Path(store_root) / LEASE_DIRNAME


def spool_dir(store_root: Path) -> Path:
    """The directory holding every shard's terminal spool."""
    return Path(store_root) / SPOOL_DIRNAME


def spool_path(store_root: Path, index: int) -> Path:
    """One shard's terminal-spool journal path."""
    return spool_dir(store_root) / f"shard{index}.jsonl"


def spool_record(rec: RequestRecord) -> dict[str, Any]:
    """The JSON-safe spool view of one terminal request.

    The result payload is deliberately *not* inlined — it is the CAS blob
    addressed by ``key``, and the router reconstructs it from the shared
    store on a fallback poll.  The spool stays small and append-fast.
    """
    out: dict[str, Any] = {
        "id": rec.request_id,
        "key": rec.key,
        "state": rec.state,
        "priority": rec.priority,
        "coalesced": rec.coalesced,
    }
    if rec.wait_s is not None:
        out["wait_s"] = rec.wait_s
    if rec.total_s is not None:
        out["total_s"] = rec.total_s
    if rec.error is not None:
        out["error"] = rec.error
    if rec.kind is not None:
        out["kind"] = rec.kind
    return out


def read_spool(path: Path) -> dict[str, dict[str, Any]]:
    """Replay one shard's spool into ``{request_id: record}``.

    Torn trailing lines (the process died mid-append) are skipped, same
    discipline as ledger replay.
    """
    return {record["id"]: record for record in read_jsonl(path)
            if record.get("event") == SPOOL_EVENT
            and isinstance(record.get("id"), str)}


@dataclass(frozen=True)
class ShardConfig:
    """Everything one shard process needs, as picklable primitives."""

    index: int
    num_shards: int
    store_root: str
    port_file: str
    host: str = "127.0.0.1"
    salt: str | None = None
    capacity: int = 64
    aging_every: int = 8
    batch_size: int = 4
    elastic_max: int | None = None
    max_workers: int | None = None
    parallel: bool = True
    store_max_bytes: int | None = None
    lease_ttl_s: float = 120.0
    checkpoint_every: int = 0  #: snapshot interval in ticks (0 = off)
    plane: bool = False  #: share region assets across shards via repro.plane
    plane_dir: str = ""  #: plane coordination dir (default: <store>/plane)
    sys_path: tuple[str, ...] = field(default_factory=tuple)


def build_shard_service(config: ShardConfig):
    """Compose one shard's :class:`ScenarioService` (importable for tests).

    Returns ``(service, store)``.
    """
    from .server import ScenarioService

    store = ContentStore(Path(config.store_root),
                         max_bytes=config.store_max_bytes)
    leases = LeaseTable(
        lease_dir(store.root),
        owner=f"shard{config.index}:pid{os.getpid()}",
        ttl_s=config.lease_ttl_s)
    spool = RunLedger(spool_path(store.root, config.index))

    def on_terminal(rec: RequestRecord) -> None:
        spool.append(SPOOL_EVENT, **spool_record(rec))

    checkpoint = None
    if config.checkpoint_every > 0:
        from ..checkpoint import CheckpointPlan

        checkpoint = CheckpointPlan(
            store_root=str(store.root), every=config.checkpoint_every,
            salt=config.salt, lease_root=str(lease_dir(store.root)))
    service = ScenarioService(
        store=store, salt=config.salt, capacity=config.capacity,
        aging_every=config.aging_every, batch_size=config.batch_size,
        elastic_max=config.elastic_max, max_workers=config.max_workers,
        parallel=config.parallel, leases=leases,
        rid_prefix=f"s{config.index}-", on_terminal=on_terminal,
        checkpoint=checkpoint)
    return service, store


def shard_main(config: ShardConfig) -> None:
    """Entry point of one shard process.

    Binds an ephemeral port, advertises it through the port file, serves
    until SIGTERM/SIGINT, then drains gracefully: stop admitting, finish
    every accepted request (each lands in the spool), exit 0.
    """
    for entry in config.sys_path:
        if entry not in sys.path:
            sys.path.insert(0, entry)
    if config.plane:
        # Environment, not arguments: the broker's pool workers and every
        # nested load site inherit the plane opt-in automatically.
        os.environ["REPRO_PLANE"] = "1"
        if config.plane_dir:
            os.environ["REPRO_PLANE_DIR"] = config.plane_dir
    from .server import make_server

    service, _store = build_shard_service(config)
    service.start()
    server = make_server(service, host=config.host, port=0)
    stop = threading.Event()

    def on_signal(signum, frame):  # noqa: ARG001 — signal API
        stop.set()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    serve_thread = threading.Thread(target=server.serve_forever,
                                    name=f"shard{config.index}-http",
                                    daemon=True)
    serve_thread.start()
    port_file = Path(config.port_file)
    with atomic_write(port_file) as fh:
        json.dump({"shard": config.index, "port": server.server_address[1],
                   "pid": os.getpid(), "host": config.host}, fh)
    try:
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        # Graceful drain: refuse new work, finish everything admitted.
        service.stop(drain=True)
        server.shutdown()
        server.server_close()
        port_file.unlink(missing_ok=True)


@dataclass
class ShardHandle:
    """One running shard process plus its advertised address."""

    config: ShardConfig
    process: multiprocessing.process.BaseProcess
    address: tuple[str, int] | None = None

    @property
    def index(self) -> int:
        return self.config.index

    def alive(self) -> bool:
        """Whether the shard process is still running."""
        return self.process.is_alive()


class ShardFleet:
    """Spawn, address, and drain ``N`` shard worker processes.

    Args:
        store_root: the shared store directory (CAS + leases + spool).
        num_shards: worker count; routing is ``int(key, 16) % num_shards``.
        run_dir: where port files live (defaults to ``<store>/run``).
        Remaining keyword args mirror :class:`ShardConfig`.
    """

    def __init__(self, store_root: str | Path, num_shards: int, *,
                 run_dir: str | Path | None = None, host: str = "127.0.0.1",
                 salt: str | None = None, capacity: int = 64,
                 aging_every: int = 8, batch_size: int = 4,
                 elastic_max: int | None = None,
                 max_workers: int | None = None, parallel: bool = True,
                 store_max_bytes: int | None = None,
                 lease_ttl_s: float = 120.0,
                 checkpoint_every: int = 0,
                 plane: bool = False,
                 plane_dir: str | Path | None = None) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.store_root = Path(store_root)
        self.num_shards = num_shards
        self.run_dir = (Path(run_dir) if run_dir is not None
                        else self.store_root / "run")
        self.host = host
        self.plane = plane
        # One plane per fleet, under the store root like the lease table:
        # a single REPRO_STORE_DIR still configures everything shared.
        self.plane_dir = Path(plane_dir) if plane_dir is not None \
            else self.store_root / "plane"
        self._ctx = multiprocessing.get_context("spawn")
        self.shards: list[ShardHandle] = []
        self._kwargs = dict(
            salt=salt, capacity=capacity, aging_every=aging_every,
            batch_size=batch_size, elastic_max=elastic_max,
            max_workers=max_workers, parallel=parallel,
            store_max_bytes=store_max_bytes, lease_ttl_s=lease_ttl_s,
            checkpoint_every=checkpoint_every,
            plane=plane, plane_dir=str(self.plane_dir))

    def config_of(self, index: int) -> ShardConfig:
        """The picklable config one shard process is spawned with."""
        return ShardConfig(
            index=index, num_shards=self.num_shards,
            store_root=str(self.store_root),
            port_file=str(self.run_dir / f"shard{index}.port"),
            host=self.host, sys_path=tuple(sys.path), **self._kwargs)

    # -- lifecycle -------------------------------------------------------------

    def start_shard(self, index: int) -> ShardHandle:
        """Spawn (or respawn) one shard; stale port files are cleared."""
        config = self.config_of(index)
        Path(config.port_file).unlink(missing_ok=True)
        # daemon=False: shard brokers own process pools, and daemonic
        # processes cannot have children.
        proc = self._ctx.Process(target=shard_main, args=(config,),
                                 name=f"repro-shard{index}", daemon=False)
        proc.start()
        handle = ShardHandle(config=config, process=proc)
        for existing in self.shards:
            if existing.index == index:
                self.shards.remove(existing)
                break
        self.shards.append(handle)
        self.shards.sort(key=lambda h: h.index)
        return handle

    def start(self, *, ready_timeout_s: float = 30.0) -> "ShardFleet":
        """Spawn every shard and wait until all advertise a port."""
        for index in range(self.num_shards):
            self.start_shard(index)
        self.wait_ready(timeout_s=ready_timeout_s)
        return self

    def wait_ready(self, *, timeout_s: float = 30.0) -> None:
        """Block until every live shard has published its port file."""
        watch = Stopwatch()
        for handle in self.shards:
            port_file = Path(handle.config.port_file)
            while handle.address is None:
                info = read_json(port_file)  # published atomically
                if info is not None:
                    handle.address = (info["host"], int(info["port"]))
                    break
                if not handle.process.is_alive():
                    raise RuntimeError(
                        f"shard {handle.index} exited before publishing "
                        f"its port (exitcode {handle.process.exitcode})")
                if watch.elapsed() >= timeout_s:
                    raise TimeoutError(
                        f"shard {handle.index} did not publish a port "
                        f"within {timeout_s:.0f}s")
                time.sleep(0.05)

    def addresses(self) -> list[tuple[str, int] | None]:
        """Per-shard ``(host, port)`` (None for a shard not yet ready)."""
        return [handle.address for handle in self.shards]

    def drain_shard(self, index: int, *, timeout_s: float = 60.0) -> bool:
        """SIGTERM one shard and join it: the rolling-restart step.

        The shard finishes everything it admitted (spooling each
        terminal record) before exiting; returns True when it exited
        within the timeout.
        """
        for handle in self.shards:
            if handle.index == index and handle.process.is_alive():
                handle.process.terminate()  # SIGTERM -> graceful drain
                handle.process.join(timeout_s)
                return not handle.process.is_alive()
        return True

    def stop(self, *, timeout_s: float = 60.0) -> None:
        """Drain every shard (reverse order, arbitrary but deterministic).

        With the plane on, the supervisor owns the final unlink: once
        every shard has exited, a gc pass reclaims any segment the
        shards' own last-man-out cleanup missed (e.g. a killed shard).
        """
        for handle in reversed(self.shards):
            if handle.process.is_alive():
                handle.process.terminate()
        for handle in reversed(self.shards):
            handle.process.join(timeout_s)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(5.0)
        if self.plane:
            from ..plane import plane_gc

            try:
                plane_gc(self.plane_dir)
            except OSError:  # pragma: no cover - teardown is best-effort
                pass

    def __enter__(self) -> "ShardFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
