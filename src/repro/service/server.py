"""One scenario-service process: its composition, HTTP door and serve loop.

:class:`ServiceConfig` names every ``repro serve`` option once;
:func:`build_service` turns a config into the process's one
:class:`ScenarioService` — admission queue, broker, supervised memoized
fan-out — and :func:`serve` runs it behind one :class:`ScenarioServer` (a
``ThreadingHTTPServer``) until a signal drains it.  The versioned surface
is declared in :mod:`repro.service.api`:

- ``POST /v1/scenarios`` — submit a scenario; ``202`` with the request id
  (``status`` is ``"queued"``, ``"coalesced"``, or ``"done"`` for an
  answer resolved at admission: the scenario's verified blob in the store,
  or a confident surrogate), ``429``/``queue_full`` under backpressure,
  ``503``/``draining`` while shutting down.
- ``GET /v1/scenarios/<id>`` — poll a request; terminal responses carry
  the result payload (``done``) or the triage error (``failed`` /
  ``cancelled``).
- ``GET /v1/scenarios?state=&limit=&cursor=`` — enumerate tracked
  requests (keyset pagination over the request registry).
- ``GET /v1/healthz`` — liveness plus queue depth and drain state.
- ``GET /v1/metrics`` — flat JSON snapshot of the obs registry
  (``service.*``, ``memo.*``, ``retry.*``, ``store.*``, worker telemetry).

Handler threads admit: they run the admission ladder
(:meth:`ScenarioService.submit`), so besides the lock-guarded queue they
read the store, consult the surrogate and append ``cache_hit`` events to
the journal, beside the broker thread.  All execution stays on the
broker thread.  Connections are HTTP/1.1 keep-alive with Nagle's
algorithm off and each response sent in one write; one idle for
:data:`~repro.service.api.IDLE_TIMEOUT_S` is closed, and
:meth:`ScenarioServer.server_close` closes every one still open, as a
process exit would.

Shutdown is graceful by default: stop admitting, finish everything
queued, then stop the broker — a request accepted with ``202`` is never
silently dropped.

Any number of such processes may share one store: each attaches the
store's lease table, so a scenario submitted to several of them runs
once and the others read its blob.  A request id belongs to the process
that issued it and restarts with it; the durable name of a result is its
``key`` — re-POSTing the same scenario after a restart is a store hit
that returns the same bytes.  DESIGN.md §9 has the protocol.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Any

from ..core.parallel import InstanceSpec
from ..obs.registry import MetricsRegistry
from ..resilience import FaultPlan, RetryPolicy
from ..store.cas import LeaseTable, lease_dir, open_store
from ..store.files import atomic_write
from ..store.ledger import RunLedger
from ..store.memo import outcome_from_payload, outcome_payload
from .api import (
    DEFAULT_PORT,
    DRAINING,
    NOT_FOUND,
    QUEUE_FULL,
    ApiError,
    JsonApiHandler,
    parse_list_query,
    spec_from_request,
)
from .broker import Broker
from .queue import (
    DONE,
    FAILED,
    TERMINAL_STATES,
    Admission,
    RequestRecord,
    ScenarioQueue,
)

__all__ = [
    "DEFAULT_PORT",
    "ScenarioHandler",
    "ScenarioServer",
    "ScenarioService",
    "ServiceConfig",
    "build_service",
    "make_server",
    "record_view",
    "serve",
]

#: States a listing may filter on.
LISTABLE_STATES = frozenset(
    {"queued", "running"} | set(TERMINAL_STATES))


def record_view(rec: RequestRecord, *,
                include_result: bool = True) -> dict[str, Any]:
    """JSON-safe status view of one tracked request.

    ``include_result=False`` gives the summary shape the listing endpoint
    returns (payload arrays omitted; everything else identical).
    """
    out: dict[str, Any] = {
        "id": rec.request_id,
        "state": rec.state,
        "key": rec.key,
        "priority": rec.priority,
        "coalesced": rec.coalesced,
    }
    if rec.wait_s is not None:
        out["wait_s"] = rec.wait_s
    if rec.total_s is not None:
        out["total_s"] = rec.total_s
    if include_result and rec.state == DONE and rec.result is not None:
        # .tolist() round-trips float64 exactly through JSON (repr-based),
        # which is what keeps coalesced payloads bit-identical end to end.
        out["result"] = {k: v.tolist() for k, v in rec.result.items()}
    if rec.state == FAILED or rec.error is not None:
        out["error"] = rec.error
        out["kind"] = rec.kind
    return out


class ScenarioService:
    """Queue + broker + telemetry behind one object the API serves.

    Every submission climbs one admission ladder, :meth:`submit`, in the
    HTTP handler thread: a draining service refuses; a scenario already
    queued or running coalesces onto it; one whose verified exact blob is
    in the store, or (with a :class:`~repro.surrogate.serving.SurrogateGate`
    attached) one the surrogate answers confidently, resolves at once —
    no queue slot, no broker batch, no worker; anything else is enqueued
    for exact execution.  Exact answers outrank emulated ones: the
    surrogate stands in only for runs that do not exist yet.  Because the
    broker journals spec-carrying completions to the store's corpus
    ledger, every exact run becomes training data for the next retrain
    (the active-learning loop).

    Composed in one place, :func:`build_service`, which also attaches the
    store's lease table.
    """

    def __init__(
        self,
        *,
        store=None,
        ledger=None,
        salt: str | None = None,
        registry: MetricsRegistry | None = None,
        tracer=None,
        capacity: int = 64,
        aging_every: int = 8,
        batch_size: int = 4,
        max_workers: int | None = None,
        parallel: bool = True,
        retry=None,
        faults=None,
        surrogate=None,
        leases=None,
        checkpoint=None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.store = store
        self.surrogate = surrogate
        if surrogate is not None:
            # Fold surrogate.* counters into the service registry so hit
            # rates and band widths show up on /metrics with everything
            # else.
            surrogate.metrics = self.registry
        if surrogate is not None and ledger is None and store is not None:
            # The surrogate's flywheel: without an explicit journal,
            # exact completions still land in the store-adjacent corpus
            # ledger so the next retrain covers the gaps the gate saw.
            from ..store.ledger import RunLedger
            from ..surrogate.corpus import corpus_ledger_path

            path = corpus_ledger_path(store)
            path.parent.mkdir(parents=True, exist_ok=True)
            ledger = RunLedger(path)
        self.queue = ScenarioQueue(capacity=capacity,
                                   aging_every=aging_every,
                                   metrics=self.registry)
        self.broker = Broker(
            self.queue, store=store, ledger=ledger, salt=salt,
            registry=self.registry, tracer=tracer, batch_size=batch_size,
            max_workers=max_workers, parallel=parallel, retry=retry,
            faults=faults, leases=leases, checkpoint=checkpoint)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ScenarioService":
        """Start the broker loop."""
        self.broker.start()
        return self

    def stop(self, *, drain: bool = True,
             timeout_s: float | None = None) -> None:
        """Graceful drain by default: admit nothing, finish everything."""
        self.queue.close()
        self.broker.stop(drain=drain, timeout_s=timeout_s)

    # -- operations ------------------------------------------------------------

    def submit(self, spec: InstanceSpec, *, priority: int = 0) -> Admission:
        """Admit one scenario: the admission ladder, first rung that holds.

        1. draining → rejected (``503``), before anything is read;
        2. in flight (queued or running) → coalesce onto it: joining the
           exact computation is free and bit-exact;
        3. verified exact blob in the store → ``done``, counted under
           ``memo.hits`` and journaled as a ``cache_hit`` like a broker
           hit (a corrupt blob is quarantined and reads as a miss);
        4. confident surrogate answer → ``done``;
        5. otherwise enqueue (``429`` when the queue is full).

        Rungs 1, 2 and 5 are :meth:`ScenarioQueue.submit`'s own; a key
        that turns in flight while the store is read still gets the
        stored bytes, and an entry stored between admission and claim is
        a hit in the broker's own lookup.

        The tracked key is the *broker-salted* cache key — the same key
        the CAS blob and the lease file use — so one identifier names a
        scenario across every layer and every process on the store.
        """
        from ..store.keys import instance_key

        key = instance_key(spec, salt=self.broker.salt)
        if not self.queue.closed and not self.queue.in_flight(key):
            payload = None
            stored = None if self.store is None else self.store.get(key)
            if stored is not None:
                self.registry.inc("memo.hits")
                if self.broker.ledger is not None:
                    self.broker.ledger.cache_hit(key, label=spec.label)
                # The broker's hit path, so both serve identical arrays.
                payload = outcome_payload(outcome_from_payload(spec, stored))
            elif self.surrogate is not None:
                payload = self.surrogate.try_answer(spec)
            if payload is not None:
                return self.queue.admit_resolved(spec, key=key,
                                                 result=payload)
        return self.queue.submit(spec, priority=priority, key=key)

    def status(self, request_id: str) -> dict[str, Any] | None:
        """JSON-safe view of one request, or None when unknown."""
        rec = self.queue.status(request_id)
        return None if rec is None else record_view(rec)

    def list(self, *, state: str | None = None, limit: int = 50,
             cursor: str | None = None) -> dict[str, Any]:
        """The listing page: summary views + keyset cursor."""
        records, next_cursor = self.queue.list_records(
            state=state, limit=limit, cursor=cursor)
        views = [record_view(rec, include_result=False) for rec in records]
        return {"scenarios": views, "next_cursor": next_cursor,
                "count": len(views)}

    def health(self) -> dict[str, Any]:
        """Liveness payload for ``/v1/healthz``."""
        out = {
            "status": "draining" if self.queue.closed else "ok",
            "queue_depth": self.queue.depth(),
            "broker_running": self.broker.running,
        }
        if self.surrogate is not None:
            info = self.surrogate.model_info()
            out["surrogate"] = {
                "enabled": True,
                "rtol": self.surrogate.rtol,
                "model": info,
            }
        return out

    def metrics_snapshot(self) -> dict[str, Any]:
        """Flat registry snapshot for ``/v1/metrics``."""
        return self.broker.metrics_view().snapshot()


class ScenarioServer(ThreadingHTTPServer):
    """The one ``ThreadingHTTPServer`` under ``src/``: it carries the
    service for its handlers and tracks its open keep-alive connections,
    so closing the server closes them too."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: ScenarioService) -> None:
        super().__init__(address, ScenarioHandler)
        self.service = service
        self._open: set = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        """Track the connection, then serve it on its own thread."""
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        """Forget the connection, then close it."""
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener and every connection still open."""
        super().server_close()
        with self._open_lock:
            still_open = list(self._open)
        for conn in still_open:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already gone


class ScenarioHandler(JsonApiHandler):
    """The ``/v1`` surface bound to one in-process service."""

    @property
    def service(self) -> ScenarioService:
        return self.server.service  # type: ignore[attr-defined]

    # -- routes (dispatched through the api table) -----------------------------

    def api_healthz(self, *, query) -> tuple[int, dict[str, Any]]:
        """Liveness + queue depth + drain state."""
        return 200, self.service.health()

    def api_metrics(self, *, query) -> tuple[int, dict[str, Any]]:
        """Flat obs-registry snapshot."""
        return 200, self.service.metrics_snapshot()

    def api_get_scenario(self, *, query,
                         request_id: str) -> tuple[int, dict[str, Any]]:
        """Poll one request (enveloped 404 when unknown)."""
        view = self.service.status(request_id)
        if view is None:
            raise ApiError(NOT_FOUND, f"unknown request {request_id!r}")
        return 200, view

    def api_list_scenarios(self, *, query) -> tuple[int, dict[str, Any]]:
        """Keyset-paginated listing of tracked requests."""
        state, limit, cursor = parse_list_query(query, LISTABLE_STATES)
        return 200, self.service.list(state=state, limit=limit,
                                      cursor=cursor)

    def api_submit_scenario(self, *, query) -> tuple[int, dict[str, Any]]:
        """Admit one scenario; 202, or an enveloped 429/503."""
        spec, priority = spec_from_request(self.read_json_body())
        adm = self.service.submit(spec, priority=priority)
        if not adm.admitted:
            if adm.reason == "draining":
                raise ApiError(DRAINING, "service is draining",
                               retry_after_s=60.0)
            raise ApiError(QUEUE_FULL, "queue full",
                           retry_after_s=adm.retry_after_s or 1.0)
        return 202, {"id": adm.request_id, "key": adm.key,
                     "status": adm.status, "depth": adm.depth}


def make_server(service: ScenarioService, host: str = "127.0.0.1",
                port: int = 0) -> ScenarioServer:
    """Bind a :class:`ScenarioServer` (``port=0`` picks an ephemeral one)."""
    return ScenarioServer((host, port), service)


@dataclass(frozen=True)
class ServiceConfig:
    """Every ``repro serve`` option, once, with its default.

    Field names are the CLI flags'.  ``salt`` is the cache-key salt
    override tests use — the one field that is not a flag.  ``plane``
    None (neither flag given) follows ``REPRO_PLANE``.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    port_file: str | None = None
    capacity: int = 64
    aging_every: int = 8
    batch_size: int = 4
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
    plane: bool | None = False
    plane_dir: str | None = None
    salt: str | None = None

    def __post_init__(self) -> None:
        """The combinations no process can serve, refused in one place."""
        for flag, needs_store in (("--surrogate", self.surrogate),
                                  ("--checkpoint-every",
                                   self.checkpoint_every > 0)):
            if needs_store and self.no_cache:
                raise ValueError(
                    f"{flag} needs the result store (drop --no-cache)")
        self.fault_plan()

    def fault_plan(self) -> FaultPlan | None:
        """The ``--inject`` rules as a plan (None when there are none)."""
        return FaultPlan.from_flags(self.inject, seed=self.fault_seed)


def build_service(config: ServiceConfig, *, tracer=None) -> ScenarioService:
    """Compose the one :class:`ScenarioService` a process serves.

    The only construction site under ``src/``.  With a store, the
    service always attaches the store's lease table, so any number of
    processes serving one store execute each key once.
    """
    from ..checkpoint import checkpoint_plan

    store = open_store(config.store_dir, no_cache=config.no_cache)
    extras: dict[str, Any] = {}
    if store is not None:
        extras["leases"] = LeaseTable(lease_dir(store.root),
                                      owner=f"serve:pid{os.getpid()}")
    if config.surrogate:
        from ..surrogate import ModelRegistry, SurrogateGate

        extras["surrogate"] = SurrogateGate(ModelRegistry(store),
                                            rtol=config.surrogate_rtol)
    if config.ledger:
        extras["ledger"] = RunLedger(Path(config.ledger))
    return ScenarioService(
        store=store, salt=config.salt, tracer=tracer,
        faults=config.fault_plan(),
        retry=RetryPolicy.from_flags(config.max_attempts, config.fault_seed),
        checkpoint=checkpoint_plan(store, config.checkpoint_every,
                                   salt=config.salt, ledger=config.ledger),
        capacity=config.capacity, aging_every=config.aging_every,
        batch_size=config.batch_size, max_workers=config.workers,
        parallel=not config.serial, **extras)


def serve_until_signalled(server, *, port_file: str | None, drain) -> None:
    """Publish the bound port, serve until SIGINT/SIGTERM, then drain.

    The port file is ``PORT\\n``, published atomically after the bind, so
    a supervisor polling it never reads a torn or early value.  ``drain``
    runs while HTTP still answers (polls resolve, submissions get the
    ``draining`` envelope); only then does the listener close.
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
    """Run one service process to completion (``repro serve``)."""
    from ..plane import opt_in

    # Environment, not arguments: the broker's pool workers and every
    # nested load site inherit the plane opt-in.
    opt_in(config.plane, config.plane_dir)
    service = build_service(config, tracer=tracer).start()
    server = make_server(service, host=config.host, port=config.port)
    print(f"repro service listening on "
          f"http://{config.host}:{server.server_address[1]} "
          f"(capacity={config.capacity}, batch={config.batch_size}, "
          f"cache={'off' if config.no_cache else 'on'}, "
          f"surrogate={'on' if config.surrogate else 'off'})", flush=True)
    # Graceful drain: refuse new work, finish everything admitted.
    serve_until_signalled(server, port_file=config.port_file,
                          drain=service.stop)
    print("repro service stopped", flush=True)
