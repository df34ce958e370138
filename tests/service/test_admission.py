"""The admission ladder: what the store already holds is answered at once.

Draining refuses before anything is read, an in-flight key coalesces, a
verified stored blob resolves in the handler thread (a corrupt one is
quarantined and runs again), and only then is a request enqueued.
"""

import threading
import time

import pytest

from repro.core.runner import execute_spec
from repro.obs.registry import MetricsRegistry
from repro.resilience import FaultPlan
from repro.service import (
    DrainingError,
    ScenarioService,
    ServiceClient,
    make_server,
    spec_from_request,
)
from repro.store.cas import ContentStore
from repro.store.ledger import RunLedger, replay_ledger
from repro.store.memo import outcome_payload

pytestmark = pytest.mark.fast

STORED = {"region": "VT", "params": {"TAU": 0.3}, "days": 10,
          "scale": 1e-3, "seed": 9}
SLOW = {"region": "WY", "params": {"TAU": 0.3}, "days": 10,
        "scale": 1e-3, "seed": 9}


@pytest.fixture()
def live(tmp_path):
    """A started service (WY executions sleep 1.5 s first) + client."""
    service = ScenarioService(
        store=ContentStore(tmp_path / "store"),
        ledger=RunLedger(tmp_path / "run.jsonl"), parallel=False,
        faults=FaultPlan.parse(["worker.slow:delay=1.5,match=svc-WY"]))
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}", timeout_s=30.0)
    yield service, client
    client.close()
    server.shutdown()
    server.server_close()
    service.stop(drain=True, timeout_s=30.0)
    service.broker.ledger.close()
    thread.join(timeout=5.0)


def run(client, body):
    adm = client.submit(body)
    return adm, client.wait(adm["id"], timeout_s=60.0, poll_s=0.02)


def test_stored_scenario_is_done_at_admission_behind_a_slow_batch(live):
    service, client = live
    _adm, first = run(client, STORED)
    slow = client.submit(SLOW)
    deadline = time.monotonic() + 30.0
    while client.status(slow["id"])["state"] != "running":
        assert time.monotonic() < deadline, "slow batch never claimed"
        time.sleep(0.01)
    t0 = time.perf_counter()
    again = client.submit(STORED)
    view = client.status(again["id"])
    elapsed = time.perf_counter() - t0
    # Answered in the handler thread: no queue slot, no broker batch.
    assert again["status"] == "done"
    assert view["state"] == "done" and view["result"] == first["result"]
    assert client.status(slow["id"])["state"] == "running"
    assert elapsed < 1.0
    metrics = client.metrics()
    assert metrics["memo.hits"] == 1
    assert metrics["service.admitted"] == 3
    assert metrics["runner.instances"] == 1  # only VT has finished
    client.wait(slow["id"], timeout_s=60.0, poll_s=0.05)
    hits = [e for e in replay_ledger(service.broker.ledger.path).events
            if e["event"] == "cache_hit"]
    assert [e["label"] for e in hits] == ["svc-VT"]


def test_corrupt_blob_is_quarantined_at_admission_and_run_again(live):
    service, client = live
    adm, _first = run(client, STORED)
    path = service.store.path_of(adm["key"])
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    again, view = run(client, STORED)
    assert again["status"] == "queued"
    assert service.store.quarantined_keys() == [adm["key"]]
    metrics = client.metrics()
    assert metrics["store.corrupt"] == 1
    assert metrics["runner.instances"] == 2
    assert metrics.get("memo.hits", 0) == 0
    spec, _priority = spec_from_request(STORED)
    want = outcome_payload(execute_spec(spec, metrics=MetricsRegistry()))
    assert view["result"] == {k: v.tolist() for k, v in want.items()}
    # The re-executed result was published again: the next POST is a hit.
    assert client.submit(STORED)["status"] == "done"


def test_draining_refuses_before_reading_the_store(live, monkeypatch):
    service, client = live
    run(client, STORED)
    reads = []
    monkeypatch.setattr(service.store, "get",
                        lambda key: reads.append(key))
    service.queue.close()
    with pytest.raises(DrainingError) as exc:
        client.submit(STORED)
    assert exc.value.status == 503
    assert reads == []
