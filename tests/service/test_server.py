"""HTTP API end-to-end: submit/poll/health/metrics over a real socket."""

import threading

import pytest

from repro.service import (
    QueueFullError,
    ScenarioService,
    ServiceClient,
    ServiceError,
    make_server,
)

pytestmark = pytest.mark.fast

SCENARIO = {"region": "VT", "params": {"TAU": 0.3}, "days": 10,
            "scale": 1e-3, "seed": 9}


@pytest.fixture()
def live(tmp_path):
    """A started service + bound server + client on an ephemeral port."""
    from repro.store.cas import ContentStore

    service = ScenarioService(store=ContentStore(tmp_path / "store"),
                              parallel=False)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}", timeout_s=30.0)
    yield service, server, client
    server.shutdown()
    server.server_close()
    service.stop(drain=True, timeout_s=10.0)
    thread.join(timeout=5.0)


def test_submit_poll_roundtrip(live):
    service, server, client = live
    adm = client.submit(SCENARIO)
    assert adm["status"] == "queued" and adm["id"].startswith("r")
    view = client.wait(adm["id"], timeout_s=60.0, poll_s=0.05)
    assert view["state"] == "done"
    result = view["result"]
    assert len(result["confirmed"]) == SCENARIO["days"] + 1
    assert 0.0 <= result["attack_rate"] <= 1.0


def test_repeat_submission_is_served_without_new_execution(live):
    service, server, client = live
    first = client.submit(SCENARIO)
    v1 = client.wait(first["id"], timeout_s=60.0, poll_s=0.05)
    executed = client.metrics().get("runner.instances", 0)
    again = client.submit(SCENARIO)
    v2 = client.wait(again["id"], timeout_s=60.0, poll_s=0.05)
    metrics = client.metrics()
    assert metrics.get("runner.instances", 0) == executed == 1
    assert metrics["memo.hits"] >= 1
    # JSON round-trips repr'd float64 exactly: payloads are identical.
    assert v1["result"] == v2["result"]


def test_health_and_metrics_endpoints(live):
    service, server, client = live
    health = client.health()
    assert health["status"] == "ok" and health["broker_running"]
    adm = client.submit(SCENARIO)
    client.wait(adm["id"], timeout_s=60.0, poll_s=0.05)
    metrics = client.metrics()
    assert metrics["service.admitted"] >= 1
    assert metrics["service.completed"] >= 1
    assert "service.queue_depth" in metrics


def test_unknown_request_404(live):
    service, server, client = live
    with pytest.raises(ServiceError) as exc:
        client.status("r999999")
    assert exc.value.status == 404


def test_bad_submissions_400(live):
    service, server, client = live
    for bad in (
        {"region": "XX"},
        {"region": "VT", "days": 0},
        {"region": "VT", "scale": 2.0},
        {"region": "VT", "params": {"TAU": [1, 2]}},
        {"region": "VT", "days": "many"},
    ):
        with pytest.raises(ServiceError) as exc:
            client.submit(bad)
        assert exc.value.status == 400


def test_backpressure_429_with_retry_after(tmp_path):
    # Broker never started: the one slot stays occupied.
    service = ScenarioService(capacity=1, parallel=False)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}", timeout_s=30.0)
    try:
        assert client.submit(SCENARIO)["status"] == "queued"
        other = dict(SCENARIO, seed=10)
        with pytest.raises(QueueFullError) as exc:
            client.submit(other)
        assert exc.value.retry_after_s > 0
        # The identical scenario still coalesces through a full queue.
        assert client.submit(SCENARIO)["status"] == "coalesced"
    finally:
        server.shutdown()
        server.server_close()
        service.queue.cancel_pending()
        thread.join(timeout=5.0)


def test_draining_service_returns_503(live):
    service, server, client = live
    service.queue.close()
    with pytest.raises(ServiceError) as exc:
        client.submit(SCENARIO)
    assert exc.value.status == 503
    assert client.health()["status"] == "draining"


def test_graceful_drain_finishes_accepted_work(tmp_path):
    service = ScenarioService(parallel=False).start()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}", timeout_s=30.0)
    adm = client.submit(SCENARIO)
    server.shutdown()
    server.server_close()
    # Accepted-but-unfinished work completes during the drain.
    service.stop(drain=True, timeout_s=30.0)
    thread.join(timeout=5.0)
    rec = service.queue.status(adm["id"])
    assert rec.state == "done"


def test_metrics_time_asset_builds_apart_from_cache_hits(live):
    """On a cold asset cache ``/v1/metrics`` carries the synthesis time;
    a second scenario on the same region reuses the bundle and adds none."""
    from repro.core import runner

    service, server, client = live
    runner._ASSET_CACHE.clear()
    adm = client.submit(SCENARIO)
    client.wait(adm["id"], timeout_s=60.0, poll_s=0.05)
    metrics = client.metrics()
    assert metrics["assets.cache.builds"] == 1
    built = metrics["assets.build_s"]
    assert built > 0
    adm = client.submit({**SCENARIO, "params": {"TAU": 0.31}})
    client.wait(adm["id"], timeout_s=60.0, poll_s=0.05)
    metrics = client.metrics()
    assert metrics["runner.instances"] == 2
    assert metrics["assets.cache.builds"] == 1
    assert metrics["assets.build_s"] == built
