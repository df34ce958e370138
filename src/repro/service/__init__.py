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
- :mod:`~repro.service.server` / :mod:`~repro.service.client` — one
  service process (:class:`ServiceConfig` → :func:`build_service` →
  :func:`serve`) behind a stdlib-only JSON HTTP API (``repro serve`` /
  ``repro submit``) whose admission ladder answers stored and
  confidently emulated scenarios in the handler thread; clients keep one
  keep-alive connection per thread.  Processes that share a store share
  its lease table, so a scenario runs once however many of them receive
  it.
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
from .server import (
    DEFAULT_PORT,
    ScenarioServer,
    ScenarioService,
    ServiceConfig,
    build_service,
    make_server,
    record_view,
    serve,
)

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
    "ScenarioQueue",
    "ScenarioServer",
    "ScenarioService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "TERMINAL_STATES",
    "build_service",
    "error_envelope",
    "make_server",
    "record_view",
    "resolve",
    "serve",
    "spec_from_request",
]
