"""The fleet front door: one ``/v1`` surface over N shard workers.

The router is a thin, stateless HTTP process.  It owns no queue and runs
nothing; every request is forwarded over localhost to the shard that
owns it and the response relayed verbatim — the uniform envelope means
shard errors pass through untouched.

Routing rules:

- ``POST /v1/scenarios`` — validate the body (the same
  :func:`~repro.service.api.spec_from_request` the shards use), compute
  the canonical cache key, forward to ``shard_of(key)``.  A dead or
  draining owner is *rerouted* to the next live shard in ring order:
  the shared lease table guarantees at most one execution per key even
  when routing degrades, so rerouting trades locality for availability
  without risking duplicate work.
- ``GET /v1/scenarios/<id>`` — ids are self-addressing (``s<k>-r...``);
  forward to shard ``k``.  When that shard is gone (rolling restart),
  fall back to its terminal spool: the drained process journaled every
  resolved request, and the result payload is rebuilt from the shared
  CAS by key — polls keep answering across the restart.
- ``GET /v1/scenarios`` — fan out to every live shard, merge pages in
  id order.  The merged ``next_cursor`` is the last id returned, which
  every shard interprets independently (ids are fixed-width per shard).
- ``GET /v1/healthz`` — aggregate: ``ok`` only when every shard answers
  ``ok``; per-shard detail included.
- ``GET /v1/metrics`` — numeric sum across shard snapshots (counters
  and timers add by construction; summed gauges read as fleet totals),
  plus the router's own ``router.*`` counters.
"""

from __future__ import annotations

import http.client
import json
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Any

from ..obs.registry import MetricsRegistry
from ..store.cas import ContentStore
from ..store.keys import instance_key
from .api import (
    DRAINING,
    INTERNAL,
    NOT_FOUND,
    ApiError,
    JsonApiHandler,
    parse_list_query,
    spec_from_request,
)
from .queue import DONE
from .server import LISTABLE_STATES
from .shard import (
    ServiceConfig,
    ShardFleet,
    read_spool,
    rid_shard,
    serve_until_signalled,
    shard_of,
    spool_path,
)


class ShardUnavailable(Exception):
    """The target shard is dead or refused the forward."""


class Router:
    """Forwarding logic over a set of shard addresses.

    Args:
        addresses: per-shard ``(host, port)``; index == shard index.
            Entries may be None (shard not up) — those are skipped.
        store_root: the fleet's shared store directory, for spool
            fallback and result reconstruction.
        salt: cache-key salt (must match the shards').
        registry: ``router.*`` counter sink.
        timeout_s: per-forward socket timeout.
    """

    def __init__(self, addresses: list[tuple[str, int] | None],
                 store_root: str | Path, *, salt: str | None = None,
                 registry: MetricsRegistry | None = None,
                 timeout_s: float = 30.0) -> None:
        self.addresses = list(addresses)
        self.store_root = Path(store_root)
        self.salt = salt
        self.registry = registry if registry is not None else MetricsRegistry()
        self.timeout_s = timeout_s
        self._store: ContentStore | None = None
        self._local = threading.local()

    @classmethod
    def for_fleet(cls, fleet, **kwargs) -> "Router":
        """A router over a :class:`~repro.service.shard.ShardFleet`."""
        return cls(fleet.addresses(), fleet.store_root,
                   salt=fleet.config.salt, **kwargs)

    @property
    def num_shards(self) -> int:
        return len(self.addresses)

    @property
    def store(self) -> ContentStore:
        if self._store is None:
            self._store = ContentStore(self.store_root)
        return self._store

    # -- transport -------------------------------------------------------------

    def _connection(self, address: tuple[str, int]) -> http.client.HTTPConnection:
        """A persistent per-thread connection to one shard."""
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        conn = pool.get(address)
        if conn is None:
            conn = http.client.HTTPConnection(
                address[0], address[1], timeout=self.timeout_s)
            pool[address] = conn
        return conn

    def _drop_connection(self, address: tuple[str, int]) -> None:
        pool = getattr(self._local, "pool", None)
        if pool is not None:
            conn = pool.pop(address, None)
            if conn is not None:
                conn.close()

    def forward(self, shard: int, method: str, path: str,
                body: dict[str, Any] | None = None
                ) -> tuple[int, dict[str, Any]]:
        """Forward one request to a shard; relay ``(status, payload)``.

        Raises :class:`ShardUnavailable` when the shard is not reachable
        (no address, connection refused, mid-flight drop).  One silent
        retry covers the keep-alive race where the shard closed an idle
        persistent connection between requests.
        """
        address = (self.addresses[shard]
                   if 0 <= shard < len(self.addresses) else None)
        if address is None:
            raise ShardUnavailable(f"shard {shard} has no address")
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"}
        for attempt in (0, 1):
            conn = self._connection(address)
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
                data = resp.read()
                return resp.status, json.loads(data or b"{}")
            except (http.client.HTTPException, OSError,
                    json.JSONDecodeError) as exc:
                self._drop_connection(address)
                if attempt == 1:
                    self.registry.inc("router.forward_errors")
                    raise ShardUnavailable(
                        f"shard {shard} unreachable: {exc}") from None

    # -- operations ------------------------------------------------------------

    def submit(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        """Route a submission to its key's owner; reroute if that shard
        is down or draining (the lease table keeps the key single-flight
        fleet-wide)."""
        spec, _priority = spec_from_request(body)
        key = instance_key(spec, salt=self.salt)
        owner = shard_of(key, self.num_shards)
        last: tuple[int, dict[str, Any]] | None = None
        for offset in range(self.num_shards):
            shard = (owner + offset) % self.num_shards
            try:
                status, payload = self.forward(
                    shard, "POST", "/v1/scenarios", body)
            except ShardUnavailable:
                self.registry.inc("router.reroutes")
                continue
            draining = (status == 503 and isinstance(payload.get("error"),
                                                     dict)
                        and payload["error"].get("code") == DRAINING)
            if draining:
                last = (status, payload)
                self.registry.inc("router.reroutes")
                continue
            if offset:
                self.registry.inc("router.rerouted_submits")
            return status, payload
        if last is not None:
            return last
        raise ApiError(DRAINING, "no shard available", retry_after_s=5.0)

    def get_scenario(self, request_id: str) -> tuple[int, dict[str, Any]]:
        """Poll the owning shard; fall back to its spool when it's gone."""
        shard = rid_shard(request_id)
        if shard is None or shard >= self.num_shards:
            raise ApiError(NOT_FOUND, f"unknown request {request_id!r}")
        try:
            return self.forward(shard, "GET",
                                f"/v1/scenarios/{request_id}")
        except ShardUnavailable:
            view = read_spool(
                spool_path(self.store_root, shard)).get(request_id)
            if view is None:
                raise ApiError(
                    NOT_FOUND,
                    f"request {request_id!r} unknown (shard {shard} down, "
                    "not in its spool)")
            self.registry.inc("router.spool_hits")
            # The spool holds the shard's own ``record_view``; all that is
            # missing is the payload, which is the CAS blob under ``key``.
            # Same serialization as the live path: float64 .tolist()
            # round-trips exactly, so the answer stays bit-identical.
            payload = (self.store.get(view["key"])
                       if view["state"] == DONE else None)
            if payload is not None:
                view["result"] = {k: v.tolist() for k, v in payload.items()}
            return 200, view

    def list_scenarios(self, *, state: str | None, limit: int,
                       cursor: str | None) -> dict[str, Any]:
        """Fan out a listing to every live shard and merge in id order."""
        merged: list[dict[str, Any]] = []
        any_more = False
        params = [f"limit={limit}"]
        if state is not None:
            params.append(f"state={state}")
        if cursor is not None:
            params.append(f"cursor={cursor}")
        path = "/v1/scenarios?" + "&".join(params)
        for shard in range(self.num_shards):
            try:
                status, payload = self.forward(shard, "GET", path)
            except ShardUnavailable:
                continue
            if status != 200:
                continue
            merged.extend(payload.get("scenarios", []))
            if payload.get("next_cursor"):
                any_more = True
        merged.sort(key=lambda view: view["id"])
        if len(merged) > limit:
            any_more = True
            merged = merged[:limit]
        next_cursor = merged[-1]["id"] if merged and any_more else None
        return {"scenarios": merged, "next_cursor": next_cursor,
                "count": len(merged)}

    def health(self) -> dict[str, Any]:
        """Fleet liveness: ``ok`` only when every shard answers ``ok``."""
        shards: list[dict[str, Any]] = []
        worst = "ok"
        for shard in range(self.num_shards):
            try:
                status, payload = self.forward(shard, "GET", "/v1/healthz")
                state = payload.get("status", "down") if status == 200 \
                    else "down"
            except ShardUnavailable:
                payload = {}
                state = "down"
            shards.append({"shard": shard, "status": state,
                           "queue_depth": payload.get("queue_depth")})
            if state != "ok":
                worst = "degraded"
        return {"status": worst, "role": "router",
                "num_shards": self.num_shards, "shards": shards}

    def metrics(self) -> dict[str, Any]:
        """Numeric sum of every shard's snapshot plus ``router.*``."""
        total: dict[str, Any] = {}
        for shard in range(self.num_shards):
            try:
                status, payload = self.forward(shard, "GET", "/v1/metrics")
            except ShardUnavailable:
                continue
            if status != 200:
                continue
            for name, value in payload.items():
                if isinstance(value, (int, float)) and not isinstance(
                        value, bool):
                    total[name] = total.get(name, 0) + value
        total.update(self.registry.snapshot())
        return total


class RouterServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the router for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, router: Router) -> None:
        super().__init__(address, RouterHandler)
        self.router = router


class RouterHandler(JsonApiHandler):
    """The fleet's ``/v1`` surface: resolve, forward, relay."""

    @property
    def router(self) -> Router:
        return self.server.router  # type: ignore[attr-defined]

    def api_healthz(self, *, query) -> tuple[int, dict[str, Any]]:
        """Aggregated fleet health."""
        return 200, self.router.health()

    def api_metrics(self, *, query) -> tuple[int, dict[str, Any]]:
        """Summed fleet metrics plus ``router.*`` counters."""
        return 200, self.router.metrics()

    def api_get_scenario(self, *, query,
                         request_id: str) -> tuple[int, dict[str, Any]]:
        """Poll the owning shard (spool fallback when it is gone)."""
        return self.router.get_scenario(request_id)

    def api_list_scenarios(self, *, query) -> tuple[int, dict[str, Any]]:
        """Fan the listing out to every shard and merge by id."""
        state, limit, cursor = parse_list_query(query, LISTABLE_STATES)
        return 200, self.router.list_scenarios(state=state, limit=limit,
                                               cursor=cursor)

    def api_submit_scenario(self, *, query) -> tuple[int, dict[str, Any]]:
        """Route the submission to its key's shard (reroute on drain)."""
        try:
            return self.router.submit(self.read_json_body())
        except ApiError:
            raise
        except Exception as exc:  # noqa: BLE001 — relay, don't hang
            raise ApiError(INTERNAL, f"{type(exc).__name__}: {exc}")


def make_router_server(router: Router, host: str = "127.0.0.1",
                       port: int = 0) -> RouterServer:
    """Bind a :class:`RouterServer` (``port=0`` picks an ephemeral one)."""
    return RouterServer((host, port), router)


def serve_fleet(config: ServiceConfig) -> None:
    """``repro serve --shards N``: N shard processes (each the process
    ``--shards 1`` would run, every option forwarded) behind one router,
    on the same serve loop — draining the front door drains the fleet."""
    with ShardFleet(config.open_store().root, config.shards,
                    **vars(config)) as fleet:
        server = make_router_server(Router.for_fleet(fleet),
                                    host=config.host, port=config.port)
        shards = ", ".join(f"s{h.index}@{h.address[1]}"
                           for h in fleet.shards)
        print(f"repro router listening on "
              f"http://{config.host}:{server.server_address[1]} "
              f"({config.shards} shards: {shards})", flush=True)
        # Shards drain while the router still answers their polls.
        serve_until_signalled(server, port_file=config.port_file,
                              drain=fleet.stop)
    print("fleet stopped", flush=True)
