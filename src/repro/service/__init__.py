"""Always-on scenario service plane: priority queue, coalescing, HTTP API.

The paper's workflows are batch-shaped — a nightly window, a county-week
sweep — but the *demand* on such a system is interactive: planners ask
"what if tau were 0.95 in Vermont?" at arbitrary times, often the same
question within minutes of each other.  This package turns the
reproduction's execution stack into a long-running service:

- :mod:`~repro.service.api` — the versioned ``/v1`` surface: one routing
  table, one error envelope;
- :mod:`~repro.service.queue` — bounded admission with priority,
  deterministic aging (no starvation), and request coalescing keyed on
  canonical :func:`~repro.store.keys.instance_key` cache keys;
- :mod:`~repro.service.broker` — a background loop draining batches
  through :func:`~repro.core.parallel.supervise_instances` with the
  store, mapping every request to a terminal state even when workers die
  (one malformed request never joins a batch:
  :func:`~repro.service.api.spec_from_request` rejects params the runner
  would fail on);
- :mod:`~repro.service.server` / :mod:`~repro.service.client` — a
  stdlib-only JSON HTTP API (``repro serve`` / ``repro submit``);
- :mod:`~repro.service.shard` / :mod:`~repro.service.router` — one
  composition of a service process (:class:`ServiceConfig` →
  :func:`build_service` → :func:`serve`) and the scale-out plane made of
  it: N such processes sharded by cache-key hash over one shared store,
  coalescing kept correct across processes by a lease table, fronted by
  a stateless router (``repro serve --shards N``).
"""

from .api import (
    API_PREFIX,
    API_VERSION,
    ERROR_CODES,
    ApiError,
    BadRequest,
    error_envelope,
    resolve,
    spec_from_request,
)
from .broker import Broker
from .client import (
    DrainingError,
    NotFoundError,
    QuarantinedError,
    QueueFullError,
    ServiceClient,
    ServiceError,
)
from .queue import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Admission,
    Claim,
    RequestRecord,
    ScenarioQueue,
)
from .router import Router, RouterServer, make_router_server, serve_fleet
from .server import (
    DEFAULT_PORT,
    ScenarioServer,
    ScenarioService,
    make_server,
    record_view,
)
from .shard import ServiceConfig, ShardFleet, build_service, serve, shard_of

__all__ = [
    "API_PREFIX",
    "API_VERSION",
    "Admission",
    "ApiError",
    "BadRequest",
    "Broker",
    "CANCELLED",
    "Claim",
    "DEFAULT_PORT",
    "DONE",
    "DrainingError",
    "ERROR_CODES",
    "FAILED",
    "NotFoundError",
    "QUEUED",
    "QuarantinedError",
    "QueueFullError",
    "RUNNING",
    "RequestRecord",
    "Router",
    "RouterServer",
    "ScenarioQueue",
    "ScenarioServer",
    "ScenarioService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ShardFleet",
    "TERMINAL_STATES",
    "build_service",
    "error_envelope",
    "make_router_server",
    "make_server",
    "record_view",
    "resolve",
    "serve",
    "serve_fleet",
    "shard_of",
    "spec_from_request",
]
