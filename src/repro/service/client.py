"""A small stdlib client for the scenario service ``/v1`` HTTP API.

``repro submit`` is built on this; it is also the cross-process half of
the service tests.  Only :mod:`http.client` — the service plane stays
dependency-free end to end.  Each calling thread keeps one HTTP/1.1
keep-alive connection (``TCP_NODELAY`` set, as :mod:`http.client` does
on connect) instead of opening one per call; a reused connection the
server has since closed is retried once on a fresh one.  Retrying any
call is safe: ``POST /v1/scenarios`` is content-keyed, so a duplicate
coalesces or hits the store and returns the same bytes.

Errors are typed off the uniform envelope's ``code`` field (see
:mod:`repro.service.api`): :class:`QueueFullError` for ``queue_full``,
:class:`DrainingError` for ``draining``, :class:`NotFoundError` for
``not_found``, :class:`QuarantinedError` for ``quarantined``, and
:class:`ServiceError` for everything else (including transport
failures, where ``status`` is 0 and ``code`` empty).
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import weakref
from typing import Any
from urllib.parse import urlsplit

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


class _ThreadConnection:
    """One calling thread's connection, closed when that thread's locals
    are dropped (the thread ended) so the server's handler thread ends
    with it."""

    __slots__ = ("conn", "__weakref__")

    def __init__(self, conn: http.client.HTTPConnection) -> None:
        self.conn = conn

    def __del__(self) -> None:
        self.conn.close()


class ServiceClient:
    """Thin JSON client bound to one service base URL (speaks ``/v1``):
    by default ``REPRO_SERVICE_URL``, else the local default port.

    Safe to share between threads: each thread talks over its own
    keep-alive connection.  :meth:`close` closes all of them.
    """

    def __init__(self, base_url: str | None = None, *,
                 timeout_s: float = 30.0) -> None:
        base_url = (base_url or os.environ.get("REPRO_SERVICE_URL")
                    or f"http://127.0.0.1:{DEFAULT_PORT}")
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        url = urlsplit(self.base_url)
        self._conn_class = (http.client.HTTPSConnection
                            if url.scheme == "https"
                            else http.client.HTTPConnection)
        self._netloc = url.netloc
        self._prefix = url.path + API_PREFIX
        self._local = threading.local()
        self._open: weakref.WeakSet[_ThreadConnection] = weakref.WeakSet()

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection (opened on its first request)."""
        held = getattr(self._local, "held", None)
        if held is None:
            held = _ThreadConnection(
                self._conn_class(self._netloc, timeout=self.timeout_s))
            self._local.held = held
            self._open.add(held)
        return held.conn

    def close(self) -> None:
        """Close every thread's connection (later calls reopen one)."""
        for held in list(self._open):
            held.conn.close()

    def _request(self, method: str, path: str,
                 body: dict[str, Any] | None = None) -> dict[str, Any]:
        data = None if body is None else json.dumps(body).encode()
        conn = self._connection()
        for _ in range(2):
            # A live socket means a reused connection, which the server
            # may have closed while it idled: that failure earns one retry
            # (the retry runs on a fresh socket, so it earns none).
            reused = conn.sock is not None
            try:
                conn.request(method, self._prefix + path, body=data,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                raw = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if reused and isinstance(exc, ConnectionError):
                    continue
                raise ServiceError(
                    f"service unreachable at {self.base_url}: {exc}"
                ) from None
            break
        if 200 <= resp.status < 300:
            return json.loads(raw or b"{}")
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError:
            payload = {}
        raise error_from_payload(resp.status, payload)

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
