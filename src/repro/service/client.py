"""A small stdlib client for the scenario service ``/v1`` HTTP API.

``repro submit`` is built on this; it is also the cross-process half of
the service tests.  Only :mod:`urllib.request` — the service plane stays
dependency-free end to end.

Errors are typed off the uniform envelope's ``code`` field (see
:mod:`repro.service.api`): :class:`QueueFullError` for ``queue_full``,
:class:`DrainingError` for ``draining``, :class:`NotFoundError` for
``not_found``, :class:`QuarantinedError` for ``quarantined``, and
:class:`ServiceError` for everything else (including transport
failures, where ``status`` is 0 and ``code`` empty).
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from typing import Any

from ..obs.registry import Stopwatch
from .api import (
    API_PREFIX,
    DEFAULT_PORT,
    DRAINING,
    NOT_FOUND,
    QUARANTINED,
    QUEUE_FULL,
)


class ServiceError(RuntimeError):
    """A non-2xx response from the service.

    Attributes:
        status: HTTP status code (0 when the connection itself failed).
        code: the envelope's error code ("" for transport failures and
            bodies that are not the envelope).
        payload: decoded JSON error body when the service sent one.
    """

    def __init__(self, message: str, *, status: int = 0, code: str = "",
                 payload: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.payload = payload or {}


class QueueFullError(ServiceError):
    """429/``queue_full`` under backpressure; honor :attr:`retry_after_s`."""

    def __init__(self, message: str, *, retry_after_s: float,
                 status: int = 429,
                 payload: dict[str, Any] | None = None) -> None:
        super().__init__(message, status=status, code=QUEUE_FULL,
                         payload=payload)
        self.retry_after_s = retry_after_s


class DrainingError(ServiceError):
    """503/``draining``: the service is shutting down; retry elsewhere."""

    def __init__(self, message: str, *, retry_after_s: float | None = None,
                 status: int = 503,
                 payload: dict[str, Any] | None = None) -> None:
        super().__init__(message, status=status, code=DRAINING,
                         payload=payload)
        self.retry_after_s = retry_after_s


class NotFoundError(ServiceError):
    """404/``not_found``: unknown request id or route."""

    def __init__(self, message: str, *, status: int = 404,
                 payload: dict[str, Any] | None = None) -> None:
        super().__init__(message, status=status, code=NOT_FOUND,
                         payload=payload)


class QuarantinedError(ServiceError):
    """500/``quarantined``: execution exhausted its retry budget."""

    def __init__(self, message: str, *, status: int = 500,
                 payload: dict[str, Any] | None = None) -> None:
        super().__init__(message, status=status, code=QUARANTINED,
                         payload=payload)


def error_from_payload(status: int,
                       payload: dict[str, Any]) -> ServiceError:
    """Map an error envelope to the matching typed exception.

    A body that is not the envelope (an intermediary's error page, an
    empty body) yields a plain :class:`ServiceError` carrying the status.
    """
    error = payload.get("error")
    if not isinstance(error, dict):
        error = {}
    code = str(error.get("code", ""))
    message = str(error.get("message", f"HTTP {status}"))
    retry_after_s = error.get("retry_after_s")
    if code == QUEUE_FULL:
        return QueueFullError(
            message, status=status, payload=payload,
            retry_after_s=float(retry_after_s or 1.0))
    if code == DRAINING:
        return DrainingError(
            message, status=status, payload=payload,
            retry_after_s=None if retry_after_s is None
            else float(retry_after_s))
    if code == NOT_FOUND:
        return NotFoundError(message, status=status, payload=payload)
    if code == QUARANTINED:
        return QuarantinedError(message, status=status, payload=payload)
    return ServiceError(message, status=status, code=code, payload=payload)


class ServiceClient:
    """Thin JSON client bound to one service base URL (speaks ``/v1``):
    by default ``REPRO_SERVICE_URL``, else the local default port."""

    def __init__(self, base_url: str | None = None, *,
                 timeout_s: float = 30.0) -> None:
        base_url = (base_url or os.environ.get("REPRO_SERVICE_URL")
                    or f"http://127.0.0.1:{DEFAULT_PORT}")
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def _request(self, method: str, path: str,
                 body: dict[str, Any] | None = None) -> dict[str, Any]:
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            self.base_url + API_PREFIX + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                return json.loads(resp.read() or b"{}")
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read() or b"{}")
            except json.JSONDecodeError:
                payload = {}
            raise error_from_payload(exc.code, payload) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"service unreachable at {self.base_url}: {exc.reason}"
            ) from None

    # -- API -------------------------------------------------------------------

    def submit(self, scenario: dict[str, Any]) -> dict[str, Any]:
        """POST a scenario; returns ``{id, key, status, depth}``.

        Raises :class:`QueueFullError` on ``queue_full``,
        :class:`DrainingError` on ``draining``, and
        :class:`ServiceError` on any other non-2xx (400 validation, ...).
        """
        return self._request("POST", "/scenarios", scenario)

    def status(self, request_id: str) -> dict[str, Any]:
        """GET one request's status view."""
        return self._request("GET", f"/scenarios/{request_id}")

    def list(self, *, state: str | None = None, limit: int | None = None,
             cursor: str | None = None) -> dict[str, Any]:
        """GET a page of tracked requests.

        Returns ``{"scenarios": [...], "next_cursor": ..., "count": n}``;
        pass the returned ``next_cursor`` back to continue.
        """
        params = []
        if state is not None:
            params.append(f"state={state}")
        if limit is not None:
            params.append(f"limit={limit}")
        if cursor is not None:
            params.append(f"cursor={cursor}")
        suffix = "?" + "&".join(params) if params else ""
        return self._request("GET", "/scenarios" + suffix)

    def wait(self, request_id: str, *, timeout_s: float = 300.0,
             poll_s: float = 0.2) -> dict[str, Any]:
        """Poll until the request reaches a terminal state.

        Raises :class:`ServiceError` when ``timeout_s`` elapses first.
        """
        watch = Stopwatch()
        while True:
            view = self.status(request_id)
            if view["state"] in ("done", "failed", "cancelled"):
                return view
            if watch.elapsed() >= timeout_s:
                raise ServiceError(
                    f"request {request_id} still {view['state']!r} after "
                    f"{timeout_s:.1f}s")
            time.sleep(poll_s)

    def health(self) -> dict[str, Any]:
        """GET ``/v1/healthz``."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        """GET ``/v1/metrics`` (flat registry snapshot)."""
        return self._request("GET", "/metrics")
