"""The versioned HTTP API surface: one routing table, one error shape.

Every service endpoint lives under ``/v1`` and is declared once in
:data:`ROUTES`; the HTTP front end,
:class:`~repro.service.server.ScenarioHandler`, dispatches through
:func:`resolve` instead of growing an ``if path ==`` chain.  A path outside
the table — the unversioned paths of the first service release included —
gets the enveloped 404 ``not_found``.

Every non-2xx response is the same envelope::

    {"error": {"code": "<enum>", "message": "...", "retry_after_s": ...}}

with ``code`` drawn from a small documented enum (:data:`ERROR_CODES`),
so clients branch on codes, not message prose.  ``retry_after_s`` is
present only where retrying can help (``queue_full``, ``draining``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from http.server import BaseHTTPRequestHandler
from typing import Any
from urllib.parse import parse_qs, urlsplit

from ..core.parallel import InstanceSpec
from ..core.runner import PARAM_NAMES, build_interventions, model_for_params
from ..params import DEFAULT_SCALE
from ..synthpop.regions import REGIONS

#: The one live API version; bump when the surface changes incompatibly.
API_VERSION = "v1"
API_PREFIX = f"/{API_VERSION}"

#: Default TCP port of the service (``repro serve`` / ``repro submit``).
DEFAULT_PORT = 8377

#: Seconds a keep-alive connection may sit idle before the server closes
#: it (each open connection holds one handler thread).
IDLE_TIMEOUT_S = 30.0

# -- error vocabulary ----------------------------------------------------------

#: The documented error-code enum.  Clients switch on these; messages are
#: for humans and carry no contract.
BAD_REQUEST = "bad_request"  #: malformed body or parameters (400)
QUEUE_FULL = "queue_full"  #: admission backpressure; honor retry_after_s (429)
DRAINING = "draining"  #: service is shutting down gracefully (503)
NOT_FOUND = "not_found"  #: unknown request id or route (404)
QUARANTINED = "quarantined"  #: execution exhausted its retry budget (500)
INTERNAL = "internal"  #: unexpected handler failure (500)

ERROR_CODES = frozenset(
    {BAD_REQUEST, QUEUE_FULL, DRAINING, NOT_FOUND, QUARANTINED, INTERNAL})

#: Default HTTP status per error code.
STATUS_OF_CODE: dict[str, int] = {
    BAD_REQUEST: 400,
    QUEUE_FULL: 429,
    DRAINING: 503,
    NOT_FOUND: 404,
    QUARANTINED: 500,
    INTERNAL: 500,
}


def error_envelope(code: str, message: str, *,
                   retry_after_s: float | None = None) -> dict[str, Any]:
    """The uniform non-2xx body."""
    error: dict[str, Any] = {"code": code, "message": message}
    if retry_after_s is not None:
        error["retry_after_s"] = retry_after_s
    return {"error": error}


class ApiError(Exception):
    """A handler outcome that renders as the uniform error envelope.

    Attributes:
        code: one of :data:`ERROR_CODES`.
        status: HTTP status, per :data:`STATUS_OF_CODE`.
        retry_after_s: optional backoff hint, also sent as the standard
            ``Retry-After`` header.
    """

    def __init__(self, code: str, message: str, *,
                 retry_after_s: float | None = None) -> None:
        super().__init__(message)
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s
        self.status = STATUS_OF_CODE[code]

    def envelope(self) -> dict[str, Any]:
        """The JSON body for this error."""
        return error_envelope(self.code, self.message,
                              retry_after_s=self.retry_after_s)

    def headers(self) -> dict[str, str]:
        """Standard headers this error carries (``Retry-After``)."""
        if self.retry_after_s is None:
            return {}
        return {"Retry-After": f"{self.retry_after_s:.3f}"}


class BadRequest(ApiError, ValueError):
    """A submission the API rejects with 400/``bad_request``.

    Subclasses ``ValueError`` so pre-envelope callers that caught
    ``ValueError`` keep working.
    """

    def __init__(self, message: str) -> None:
        ApiError.__init__(self, BAD_REQUEST, message)


# -- routing table -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Route:
    """One API route: method + versioned path pattern + handler name."""

    method: str
    pattern: re.Pattern
    name: str


def _route(method: str, pattern: str, name: str) -> Route:
    return Route(method=method, pattern=re.compile(pattern), name=name)


#: The whole surface.  Handlers are ``api_<name>`` methods on the
#: dispatching handler class; named groups become keyword arguments.
ROUTES: tuple[Route, ...] = (
    _route("GET", r"/v1/healthz", "healthz"),
    _route("GET", r"/v1/metrics", "metrics"),
    _route("GET", r"/v1/scenarios", "list_scenarios"),
    _route("GET", r"/v1/scenarios/(?P<request_id>[^/]+)", "get_scenario"),
    _route("POST", r"/v1/scenarios", "submit_scenario"),
)


@dataclass(frozen=True, slots=True)
class Resolution:
    """A matched route with its captured path and query arguments."""

    route: Route
    args: dict[str, str]
    query: dict[str, str]


def resolve(method: str, raw_path: str) -> Resolution | None:
    """Match a request line against the table (None: no such route)."""
    split = urlsplit(raw_path)
    path = split.path.rstrip("/") or "/"
    query = {name: values[-1]
             for name, values in parse_qs(split.query).items()}
    for route in ROUTES:
        if route.method != method:
            continue
        match = route.pattern.fullmatch(path)
        if match is not None:
            return Resolution(route=route, args=match.groupdict(),
                              query=query)
    return None


# -- request validation --------------------------------------------------------

#: Bounds a submitted scenario must respect (tiny DoS hygiene, and the
#: reproduction's scales are meaningless outside these ranges anyway).
MAX_DAYS = 3650
MAX_SCALE = 1.0

#: Listing page-size bounds.
DEFAULT_LIST_LIMIT = 50
MAX_LIST_LIMIT = 500


def _runner_accepts(params: dict[str, Any]) -> None:
    """Build what the runner builds from ``params``; raise where it would,
    or on a name it does not read (a misspelt name would otherwise run
    the default silently)."""
    for name in params:
        if name not in PARAM_NAMES:
            raise ValueError(f"{name!r} is not a param the runner reads "
                             f"(it reads {', '.join(PARAM_NAMES)})")
    model_for_params(params)
    build_interventions(params)


@lru_cache(maxsize=4096)
def _check_params(cell: tuple[tuple[str, Any], ...]) -> None:
    """Reject a cell the runner would fail on (accepted cells are cached).

    The error names the first param that fails on its own, else all of
    them (values that only fail together).
    """
    try:
        _runner_accepts(dict(cell))
    except (TypeError, ValueError) as exc:
        culprit = dict(cell)
        for name, value in cell:
            try:
                _runner_accepts({name: value})
            except (TypeError, ValueError):
                culprit = {name: value}
                break
        raise BadRequest(f"invalid param {culprit}: {exc}") from None


def spec_from_request(body: dict[str, Any]) -> tuple[InstanceSpec, int]:
    """Validate a ``POST /v1/scenarios`` body into (spec, priority).

    Expected fields: ``region`` (required), ``params`` (mapping),
    ``days``, ``scale``, ``seed``, ``asset_seed``, ``priority``.  Params
    are checked by the runner's own rules before the spec can join any
    batch: a batch group fails as a unit, so a value the runner rejects
    would otherwise fail every request sharing its group.
    """
    if not isinstance(body, dict):
        raise BadRequest("body must be a JSON object")
    region = body.get("region")
    if not isinstance(region, str) or region.upper() not in REGIONS:
        raise BadRequest(f"unknown region {region!r}")
    region = region.upper()
    params = body.get("params", {})
    if not isinstance(params, dict):
        raise BadRequest("params must be an object")
    for name, value in params.items():
        if not isinstance(name, str):
            raise BadRequest("param names must be strings")
        if not isinstance(value, (bool, int, float, str)):
            raise BadRequest(f"unsupported param type for {name!r}")
    _check_params(tuple(sorted(params.items())))
    try:
        days = int(body.get("days", 120))
        scale = float(body.get("scale", DEFAULT_SCALE))
        seed = int(body.get("seed", 0))
        asset_seed = int(body.get("asset_seed", seed))
        priority = int(body.get("priority", 0))
    except (TypeError, ValueError):
        raise BadRequest("days/seed/asset_seed/priority must be integers, "
                         "scale a float")
    if not 1 <= days <= MAX_DAYS:
        raise BadRequest(f"days must be in [1, {MAX_DAYS}]")
    if not 0.0 < scale <= MAX_SCALE:
        raise BadRequest(f"scale must be in (0, {MAX_SCALE}]")
    spec = InstanceSpec(
        region_code=region, params=dict(params), n_days=days, scale=scale,
        seed=seed, label=f"svc-{region}", asset_seed=asset_seed)
    return spec, priority


def parse_list_query(query: dict[str, str],
                     states: frozenset[str]) -> tuple[str | None, int,
                                                      str | None]:
    """Validate ``GET /v1/scenarios`` query params into (state, limit,
    cursor)."""
    state = query.get("state") or None
    if state is not None and state not in states:
        raise BadRequest(
            f"unknown state {state!r} (one of {sorted(states)})")
    try:
        limit = int(query.get("limit", DEFAULT_LIST_LIMIT))
    except ValueError:
        raise BadRequest("limit must be an integer")
    if not 1 <= limit <= MAX_LIST_LIMIT:
        raise BadRequest(f"limit must be in [1, {MAX_LIST_LIMIT}]")
    return state, limit, query.get("cursor") or None


# -- the dispatching handler base ----------------------------------------------


class JsonApiHandler(BaseHTTPRequestHandler):
    """A ``BaseHTTPRequestHandler`` that speaks the ``/v1`` surface.

    Subclasses implement ``api_<route name>`` methods taking the route's
    named groups as keyword arguments plus the parsed ``query`` mapping;
    they return ``(status, payload)`` or raise :class:`ApiError`.
    Envelope rendering and the 404 / 500 fallbacks live here, once.
    Connections stay open between requests (HTTP/1.1 keep-alive) until
    the client closes them or they idle for :data:`IDLE_TIMEOUT_S`.
    """

    server_version = "repro-service/2.0"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # With Nagle's algorithm on, a response written in pieces waits for
    # the client's delayed ACK of the first piece.
    disable_nagle_algorithm = True
    # Buffered, so each response leaves in one send at the end of the
    # request: every blocking call hands the interpreter lock to the
    # broker thread, and getting it back can take a switch interval.
    wbufsize = -1

    def log_message(self, fmt: str, *args: Any) -> None:
        """Silenced: the obs registry is the service's telemetry."""

    # -- plumbing --------------------------------------------------------------

    def _send_json(self, status: int, payload: dict[str, Any],
                   headers: dict[str, str] | None = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_envelope(self, err: ApiError) -> None:
        self._send_json(err.status, err.envelope(), headers=err.headers())

    def read_json_body(self) -> dict[str, Any]:
        """The request body as JSON (:class:`BadRequest` when invalid)."""
        try:
            length = int(self.headers.get("Content-Length", 0))
            return json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError):
            raise BadRequest("body is not valid JSON")

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        resolution = resolve(method, self.path)
        if resolution is None:
            self._send_error_envelope(
                ApiError(NOT_FOUND, f"no route for {self.path!r}"))
            return
        handler = getattr(self, f"api_{resolution.route.name}")
        try:
            status, payload = handler(query=resolution.query,
                                      **resolution.args)
        except ApiError as err:
            self._send_error_envelope(err)
            return
        except Exception as exc:  # noqa: BLE001 — render, don't hang
            self._send_error_envelope(
                ApiError(INTERNAL, f"{type(exc).__name__}: {exc}"))
            return
        self._send_json(status, payload)

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        """Dispatch a GET through the routing table."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        """Dispatch a POST through the routing table."""
        self._dispatch("POST")
