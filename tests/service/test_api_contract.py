"""The versioned /v1 surface: routing table and error envelope.

Contract tests for :mod:`repro.service.api`: every endpoint lives under
``/v1`` and nowhere else, every non-2xx body is the uniform error
envelope with a code from the documented enum, and the client raises
typed exceptions off the envelope's ``code`` — not off message prose.
"""

import http.client
import json
import threading

import pytest

from repro.service import ScenarioService, make_server
from repro.service.api import (
    ERROR_CODES,
    STATUS_OF_CODE,
    ApiError,
    BadRequest,
    error_envelope,
    resolve,
)
from repro.service.client import (
    DrainingError,
    NotFoundError,
    QueueFullError,
    ServiceClient,
    ServiceError,
    error_from_payload,
)

pytestmark = pytest.mark.fast


class TestRoutingTable:
    def test_versioned_paths_resolve(self):
        for method, path, name in [
                ("GET", "/v1/healthz", "healthz"),
                ("GET", "/v1/metrics", "metrics"),
                ("GET", "/v1/scenarios", "list_scenarios"),
                ("GET", "/v1/scenarios/r000001", "get_scenario"),
                ("POST", "/v1/scenarios", "submit_scenario")]:
            res = resolve(method, path)
            assert res is not None and res.route.name == name

    def test_path_args_are_captured(self):
        res = resolve("GET", "/v1/scenarios/s2-r000042")
        assert res.args == {"request_id": "s2-r000042"}

    def test_query_is_parsed(self):
        res = resolve("GET", "/v1/scenarios?state=done&limit=5")
        assert res.query == {"state": "done", "limit": "5"}

    def test_unknown_path_resolves_to_none(self):
        assert resolve("GET", "/v1/nope") is None
        assert resolve("DELETE", "/v1/scenarios") is None

    def test_trailing_slash_is_tolerated(self):
        assert resolve("GET", "/v1/healthz/").route.name == "healthz"

class TestEnvelope:
    def test_error_envelope_shape(self):
        body = error_envelope("queue_full", "full", retry_after_s=2.0)
        assert body == {"error": {"code": "queue_full", "message": "full",
                                  "retry_after_s": 2.0}}

    def test_retry_after_omitted_when_unset(self):
        assert "retry_after_s" not in error_envelope("not_found", "x")["error"]

    def test_api_error_maps_codes_to_statuses(self):
        for code in ERROR_CODES:
            assert ApiError(code, "m").status == STATUS_OF_CODE[code]

    def test_api_error_rejects_unknown_codes(self):
        with pytest.raises(ValueError):
            ApiError("made_up", "m")

    def test_bad_request_is_a_value_error(self):
        # Pre-envelope callers caught ValueError; that contract holds.
        with pytest.raises(ValueError):
            raise BadRequest("nope")
        assert BadRequest("nope").status == 400

    def test_retry_after_header(self):
        err = ApiError("queue_full", "m", retry_after_s=1.5)
        assert err.headers() == {"Retry-After": "1.500"}
        assert ApiError("not_found", "m").headers() == {}


class TestClientTyping:
    def test_codes_map_to_typed_exceptions(self):
        cases = [
            ("queue_full", 429, QueueFullError),
            ("draining", 503, DrainingError),
            ("not_found", 404, NotFoundError),
            ("quarantined", 500, ServiceError),
            ("bad_request", 400, ServiceError),
        ]
        for code, status, exc_type in cases:
            exc = error_from_payload(status, error_envelope(code, "m"))
            assert isinstance(exc, exc_type)
            assert exc.code == code
            assert exc.status == status

    def test_queue_full_carries_retry_after(self):
        exc = error_from_payload(
            429, error_envelope("queue_full", "m", retry_after_s=3.5))
        assert isinstance(exc, QueueFullError)
        assert exc.retry_after_s == 3.5

    def test_non_envelope_body_is_a_plain_service_error(self):
        # An intermediary's error page, or nothing at all: no code to type.
        for body in ({}, {"error": "full", "retry_after_s": 2.0}):
            exc = error_from_payload(429, body)
            assert type(exc) is ServiceError
            assert (exc.status, exc.code) == (429, "")


@pytest.fixture()
def service(tmp_path):
    # Broker deliberately NOT started: submissions stay queued, so
    # admission-control behavior is deterministic.
    from repro.store.cas import ContentStore

    return ScenarioService(store=ContentStore(tmp_path / "store"),
                           capacity=3)


@pytest.fixture()
def server(service):
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def raw_request(server, method, path, body=None):
    """One HTTP round-trip returning (status, headers, json payload)."""
    conn = http.client.HTTPConnection(*server.server_address, timeout=10)
    try:
        payload = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), json.loads(resp.read())
    finally:
        conn.close()


def submission(tau, priority=0):
    return {"region": "VT", "params": {"TAU": tau}, "days": 5,
            "scale": 1e-4, "priority": priority}


class TestHttpSurface:
    def test_unknown_route_is_an_enveloped_404(self, server):
        status, _, payload = raw_request(server, "GET", "/v1/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_unknown_id_is_an_enveloped_404(self, server):
        status, _, payload = raw_request(server, "GET",
                                         "/v1/scenarios/r999999")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_bad_submission_is_an_enveloped_400(self, server):
        status, _, payload = raw_request(
            server, "POST", "/v1/scenarios",
            {"region": "NOWHERE", "params": {}})
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "NOWHERE" in payload["error"]["message"]

    @pytest.mark.parametrize("params,name", [
        ({"TAU": 0.3, "SYMP": "abc"}, "SYMP"),
        ({"TAU": "abc"}, "TAU"),
        # A misspelt name: it would otherwise run the default TAU.
        ({"TUA": 0.3}, "TUA"),
    ])
    def test_params_the_runner_rejects_are_an_enveloped_400(
            self, server, params, name):
        status, _, payload = raw_request(
            server, "POST", "/v1/scenarios",
            {**submission(0.3), "params": params})
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert name in payload["error"]["message"]

    def test_queue_full_envelope_and_retry_after_header(self, server):
        for i in range(3):
            status, _, _ = raw_request(server, "POST", "/v1/scenarios",
                                       submission(0.1 + i / 100))
            assert status == 202
        status, headers, payload = raw_request(
            server, "POST", "/v1/scenarios", submission(0.99))
        assert status == 429
        assert payload["error"]["code"] == "queue_full"
        assert payload["error"]["retry_after_s"] > 0
        assert float(headers["Retry-After"]) > 0

    def test_draining_envelope(self, service, server):
        service.queue.close()
        status, _, payload = raw_request(server, "POST", "/v1/scenarios",
                                         submission(0.5))
        assert status == 503
        assert payload["error"]["code"] == "draining"

    def test_unversioned_path_is_an_enveloped_404(self, server):
        # The first release's unversioned aliases are gone: they are
        # unknown routes like any other.
        for method, path, body in [("GET", "/healthz", None),
                                   ("GET", "/metrics", None),
                                   ("POST", "/scenarios", submission(0.2))]:
            status, _, payload = raw_request(server, method, path, body)
            assert status == 404
            assert payload["error"]["code"] == "not_found"

    def test_client_raises_not_found(self, server):
        client = ServiceClient(
            "http://%s:%d" % server.server_address, timeout_s=10)
        with pytest.raises(NotFoundError):
            client.status("r999999")


class TestListing:
    def test_pagination_walks_the_registry_in_id_order(self, server):
        client = ServiceClient(
            "http://%s:%d" % server.server_address, timeout_s=10)
        ids = [client.submit(submission(0.1 + i / 100))["id"]
               for i in range(3)]
        page1 = client.list(limit=2)
        assert [v["id"] for v in page1["scenarios"]] == ids[:2]
        assert page1["next_cursor"] == ids[1]
        page2 = client.list(limit=2, cursor=page1["next_cursor"])
        assert [v["id"] for v in page2["scenarios"]] == ids[2:]
        assert page2["next_cursor"] is None

    def test_state_filter(self, server):
        client = ServiceClient(
            "http://%s:%d" % server.server_address, timeout_s=10)
        client.submit(submission(0.3))
        assert client.list(state="queued")["count"] == 1
        assert client.list(state="done")["count"] == 0

    def test_bad_state_is_an_enveloped_400(self, server):
        status, _, payload = raw_request(server, "GET",
                                         "/v1/scenarios?state=bogus")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_listing_views_omit_result_payloads(self, service, server):
        client = ServiceClient(
            "http://%s:%d" % server.server_address, timeout_s=10)
        adm = client.submit(submission(0.4))
        rec = service.queue.status(adm["id"])
        service.queue.complete(rec.key, {"confirmed": __import__(
            "numpy").zeros(3)})
        views = client.list(state="done")["scenarios"]
        assert views and "result" not in views[0]
        # ...but the individual poll carries it.
        assert "result" in client.status(adm["id"])
