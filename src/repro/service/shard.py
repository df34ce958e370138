"""One composition of a scenario-service process, and fleets of them.

:class:`ServiceConfig` names every ``repro serve`` option once;
:func:`build_service` turns a config into the process's one
:class:`~repro.service.server.ScenarioService` — admission queue, broker,
supervised memoized fan-out — and :func:`serve` runs it behind the ``/v1``
HTTP surface until a signal drains it.  ``repro serve`` is that with
``shard=None``; a :class:`ShardFleet` spawns ``N`` of the same process
(``shard=k``, an ephemeral port each, advertised through a port file)
against one shared :class:`~repro.store.cas.ContentStore`, and the router
(:mod:`repro.service.router`) fronts them.

Everything shards share lives under the store root, so one
``REPRO_STORE_DIR`` configures a fleet: the **CAS** (any shard's hit is
every shard's hit), the **lease table** (``<store>/leases`` — exactly one
shard executes a key even when routing sends it to two; the others read
the winner's blob) and the **terminal spools**
(``<store>/spool/shard<k>.jsonl`` — every request that reaches a terminal
state, so the router keeps answering polls for a shard that has exited).
Routing is ``int(key, 16) % num_shards`` and request ids carry the shard
(``s<k>-r000042``); DESIGN.md §10 has the protocol.  Shard processes are
spawned and non-daemonic: their brokers own process pools.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from ..obs.registry import Stopwatch
from ..resilience import FaultPlan, RetryPolicy
from ..store.cas import ContentStore, LeaseTable, default_store
from ..store.files import atomic_write, read_jsonl
from ..store.ledger import RunLedger
from .server import DEFAULT_PORT, ScenarioService, make_server, record_view

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
    return Path(store_root) / "leases"


def spool_path(store_root: Path, index: int) -> Path:
    """One shard's terminal-spool journal path."""
    return Path(store_root) / "spool" / f"shard{index}.jsonl"


def read_spool(path: Path) -> dict[str, dict[str, Any]]:
    """Replay one shard's spool into ``{request_id: status view}``.

    Each line is the ``record_view`` the shard would have answered a poll
    with (minus the payload) inside the journal's ``event`` / ``ts``
    envelope.  Torn trailing lines (the process died mid-append) are
    skipped, same discipline as ledger replay.
    """
    views = {}
    for record in read_jsonl(path):
        if (record.pop("event", None) == SPOOL_EVENT
                and isinstance(record.get("id"), str)):
            record.pop("ts", None)
            views[record["id"]] = record
    return views


@dataclass(frozen=True)
class ServiceConfig:
    """Every ``repro serve`` option, once, with its default (picklable).

    Field names are the CLI flags'.  ``shard`` is this process's index
    within a fleet (None = the only process: no lease table, no spool,
    bare request ids) and ``salt`` the cache-key salt override tests use
    — neither is a flag.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    port_file: str | None = None
    capacity: int = 64
    aging_every: int = 8
    batch_size: int = 4
    shards: int = 1
    workers: int | None = None
    serial: bool = False
    max_attempts: int = 3
    inject: tuple[str, ...] = ()
    fault_seed: int = 0
    surrogate: bool = False
    surrogate_rtol: float = 0.05
    checkpoint_every: int = 0
    ledger: str | None = None
    no_cache: bool = False
    store_dir: str | None = None
    plane: bool = False
    plane_dir: str | None = None
    salt: str | None = None
    shard: int | None = None

    def __post_init__(self) -> None:
        """The combinations no process can serve, refused in one place."""
        sharded = self.shards > 1 or self.shard is not None
        if self.shards < 1:
            raise ValueError("--shards must be >= 1")
        if sharded and self.surrogate:
            raise ValueError("--shards does not combine with --surrogate yet")
        for flag, needs_store in (("--shards", sharded),
                                  ("--surrogate", self.surrogate),
                                  ("--checkpoint-every",
                                   self.checkpoint_every > 0)):
            if needs_store and self.no_cache:
                raise ValueError(
                    f"{flag} needs the result store (drop --no-cache)")
        try:
            self.fault_plan()
        except ValueError as exc:
            raise ValueError(f"bad --inject spec: {exc}") from None

    def open_store(self) -> ContentStore | None:
        """``--store-dir``, else the user-level default; None under
        ``--no-cache``."""
        if self.no_cache:
            return None
        return (ContentStore(Path(self.store_dir)) if self.store_dir
                else default_store())

    def fault_plan(self) -> FaultPlan | None:
        """The ``--inject`` rules as a plan (None when there are none)."""
        return (FaultPlan.parse(self.inject, seed=self.fault_seed)
                if self.inject else None)


def build_service(config: ServiceConfig, *, tracer=None) -> ScenarioService:
    """Compose the one :class:`ScenarioService` a process serves.

    The only construction site under ``src/``: ``repro serve`` is a fleet
    of one, and a shard is the same composition plus the three
    cross-process extras its index switches on (lease table, terminal
    spool, ``s<k>-`` request ids).
    """
    store = config.open_store()
    extras: dict[str, Any] = {}
    if config.shard is not None:
        spool = RunLedger(spool_path(store.root, config.shard))
        extras = dict(
            leases=LeaseTable(
                lease_dir(store.root),
                owner=f"shard{config.shard}:pid{os.getpid()}"),
            rid_prefix=f"s{config.shard}-",
            # The payload is not inlined: it is the CAS blob ``key``
            # addresses; the router re-attaches it on a fallback poll.
            on_terminal=lambda rec: spool.append(
                SPOOL_EVENT, **record_view(rec, include_result=False)))
    if config.checkpoint_every > 0:
        from ..checkpoint import CheckpointPlan

        extras["checkpoint"] = CheckpointPlan(
            store_root=str(store.root), every=config.checkpoint_every,
            salt=config.salt, lease_root=str(lease_dir(store.root)),
            ledger_path=config.ledger)
    if config.max_attempts > 1:
        extras["retry"] = RetryPolicy(max_attempts=config.max_attempts,
                                      base_delay_s=0.05,
                                      seed=config.fault_seed)
    if config.surrogate:
        from ..surrogate import ModelRegistry, SurrogateGate

        extras["surrogate"] = SurrogateGate(ModelRegistry(store),
                                            rtol=config.surrogate_rtol)
    if config.ledger:
        extras["ledger"] = RunLedger(Path(config.ledger))
    return ScenarioService(
        store=store, salt=config.salt, tracer=tracer,
        faults=config.fault_plan(),
        capacity=config.capacity, aging_every=config.aging_every,
        batch_size=config.batch_size, max_workers=config.workers,
        parallel=not config.serial, **extras)


def serve_until_signalled(server, *, port_file: str | None, drain) -> None:
    """Publish the bound port, serve until SIGINT/SIGTERM, then drain.

    The one serve loop: ``repro serve``, every shard process and the
    fleet's router run it.  The port file is ``PORT\\n``, published
    atomically after the bind, so a supervisor polling it never reads a
    torn or early value.  ``drain`` runs while HTTP still answers (polls
    resolve, submissions get the ``draining`` envelope a router reroutes
    on); only then does the listener close.
    """
    stop = threading.Event()
    # Explicit handlers, not KeyboardInterrupt: backgrounded children of
    # non-interactive shells inherit SIGINT as ignored.
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, lambda _sig, _frame: stop.set())
        except ValueError:  # pragma: no cover - non-main-thread embedding
            pass
    threading.Thread(target=server.serve_forever, name="repro-http",
                     daemon=True).start()
    if port_file:
        with atomic_write(port_file) as fh:
            fh.write(f"{server.server_address[1]}\n")
    try:
        while not stop.wait(0.2):
            pass
    finally:
        drain()
        server.shutdown()
        server.server_close()
        if port_file:
            Path(port_file).unlink(missing_ok=True)


def serve(config: ServiceConfig, *, tracer=None) -> None:
    """Run one service process to completion: ``repro serve`` with
    ``--shards 1``, and the entry point of every shard process."""
    if config.plane:
        # Environment, not arguments: the broker's pool workers and every
        # nested load site inherit the plane opt-in automatically.
        os.environ["REPRO_PLANE"] = "1"
        if config.plane_dir:
            os.environ["REPRO_PLANE_DIR"] = config.plane_dir
    service = build_service(config, tracer=tracer).start()
    server = make_server(service, host=config.host, port=config.port)
    name = "service" if config.shard is None else f"shard {config.shard}"
    print(f"repro {name} listening on "
          f"http://{config.host}:{server.server_address[1]} "
          f"(capacity={config.capacity}, batch={config.batch_size}, "
          f"cache={'off' if config.no_cache else 'on'}, "
          f"surrogate={'on' if config.surrogate else 'off'})", flush=True)
    # Graceful drain: refuse new work, finish everything admitted.
    serve_until_signalled(server, port_file=config.port_file,
                          drain=service.stop)
    print(f"repro {name} stopped", flush=True)


@dataclass
class ShardHandle:
    """One running shard process plus its advertised address."""

    config: ServiceConfig
    process: multiprocessing.process.BaseProcess
    address: tuple[str, int] | None = None

    @property
    def index(self) -> int:
        return self.config.shard

    def alive(self) -> bool:
        """Whether the shard process is still running."""
        return self.process.is_alive()


class ShardFleet:
    """Spawn, address, and drain ``N`` shard worker processes.

    Args:
        store_root: the shared store directory (CAS + leases + spool).
        num_shards: worker count; routing is ``int(key, 16) % num_shards``.
        run_dir: where port files live (defaults to ``<store>/run``).
        overrides: any other :class:`ServiceConfig` field, applied to
            every shard (``port`` / ``port_file`` are the front door's;
            each shard binds an ephemeral port of its own).
    """

    def __init__(self, store_root: str | Path, num_shards: int, *,
                 run_dir: str | Path | None = None, **overrides) -> None:
        self.store_root = Path(store_root)
        self.num_shards = num_shards
        self.run_dir = (Path(run_dir) if run_dir is not None
                        else self.store_root / "run")
        self.config = ServiceConfig(**{
            **overrides, "shards": num_shards,
            "store_dir": str(self.store_root),
            # One plane per fleet, under the store root like the leases:
            # a single REPRO_STORE_DIR configures everything shared.
            "plane_dir": str(overrides.get("plane_dir")
                             or self.store_root / "plane")})
        self._ctx = multiprocessing.get_context("spawn")
        self.shards: list[ShardHandle] = []

    # -- lifecycle -------------------------------------------------------------

    def start_shard(self, index: int) -> ShardHandle:
        """Spawn (or respawn) one shard; stale port files are cleared."""
        config = replace(
            self.config, shard=index, port=0,
            port_file=str(self.run_dir / f"shard{index}.port"))
        Path(config.port_file).unlink(missing_ok=True)
        # daemon=False: shard brokers own process pools, and daemonic
        # processes cannot have children.
        proc = self._ctx.Process(target=serve, args=(config,),
                                 name=f"repro-shard{index}", daemon=False)
        proc.start()
        handle = ShardHandle(config=config, process=proc)
        self.shards = sorted(
            [h for h in self.shards if h.index != index] + [handle],
            key=lambda h: h.index)
        return handle

    def start(self, *, ready_timeout_s: float = 30.0) -> "ShardFleet":
        """Spawn every shard and wait until all advertise a port."""
        for index in range(self.num_shards):
            self.start_shard(index)
        try:
            self.wait_ready(timeout_s=ready_timeout_s)
        except BaseException:
            self.stop()  # non-daemonic children would outlive the error
            raise
        return self

    def wait_ready(self, *, timeout_s: float = 30.0) -> None:
        """Block until every live shard has published its port file."""
        watch = Stopwatch()
        for handle in self.shards:
            port_file = Path(handle.config.port_file)
            while handle.address is None:
                try:  # published atomically: present means complete
                    handle.address = (handle.config.host,
                                      int(port_file.read_text()))
                    break
                except FileNotFoundError:
                    pass
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
        if self.config.plane:
            from ..plane import plane_gc

            try:
                plane_gc(Path(self.config.plane_dir))
            except OSError:  # pragma: no cover - teardown is best-effort
                pass

    def __enter__(self) -> "ShardFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
