"""Surrogate-in-the-service: fast answers, exact fallback, the flywheel."""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.service.queue import DONE, ScenarioQueue
from repro.service.server import ScenarioService
from repro.store.cas import ContentStore
from repro.store.keys import instance_key
from repro.surrogate import (
    ModelRegistry,
    SurrogateGate,
    build_corpus,
    corpus_ledger_path,
)

from .conftest import TAUS, make_spec

pytestmark = pytest.mark.fast


def make_service(store, registry, **kw):
    gate = SurrogateGate(ModelRegistry(registry.store), rtol=0.5)
    kw.setdefault("parallel", False)
    return ScenarioService(store=store, surrogate=gate, **kw)


def test_confident_request_completes_without_the_broker(trained):
    store, _corpus, _model, registry = trained
    service = make_service(store, registry)
    # The broker is never started: only the surrogate can answer.
    adm = service.submit(make_spec(0.25, seed=777))
    assert adm.admitted and adm.status == "done"
    view = service.status(adm.request_id)
    assert view["state"] == DONE
    assert view["result"]["source"] == "surrogate"
    assert "confirmed_lo" in view["result"]
    snap = service.metrics_snapshot()
    assert snap["surrogate.hit"] == 1
    assert snap["service.completed"] == 1


def test_out_of_distribution_request_enqueues_for_exact_run(trained):
    store, _corpus, _model, registry = trained
    service = make_service(store, registry)
    adm = service.submit(make_spec(0.2, region="CA"))
    assert adm.admitted and adm.status == "queued"
    assert service.metrics_snapshot()["surrogate.fallback"] == 1
    service.queue.cancel_pending()


def test_in_flight_scenario_coalesces_instead_of_emulating(trained):
    store, _corpus, _model, registry = trained
    service = make_service(store, registry)
    # Force an identical key into the queue first (gate disabled for it).
    spec = make_spec(0.25, seed=424)
    service.surrogate, gate = None, service.surrogate
    first = service.submit(spec)
    service.surrogate = gate
    assert first.status == "queued"
    joined = service.submit(make_spec(0.25, seed=424))
    # Joining the exact in-flight computation beats an emulated answer.
    assert joined.status == "coalesced"
    assert service.metrics_snapshot().get("surrogate.hit", 0) == 0
    service.queue.cancel_pending()


def test_stored_exact_result_outranks_the_surrogate(trained):
    """The ladder reads the store before the gate: a scenario the corpus
    already ran exactly is served its stored bytes, not an emulation."""
    import numpy as np

    store, _corpus, _model, registry = trained
    service = make_service(store, registry)
    spec = make_spec(TAUS[3])  # one of the runs the model was trained on
    key = instance_key(spec, salt=service.broker.salt)
    stored = store.get(key)
    assert stored is not None
    adm = service.submit(spec)
    assert adm.admitted and adm.status == "done" and adm.key == key
    view = service.status(adm.request_id)
    assert "source" not in view["result"]
    assert view["result"] == {name: np.asarray(value).tolist()
                              for name, value in stored.items()}
    snap = service.metrics_snapshot()
    assert snap.get("surrogate.hit", 0) == 0
    assert snap["memo.hits"] == 1


def test_in_flight_scenario_coalesces_before_the_store_and_the_gate(
        trained):
    store, _corpus, _model, registry = trained
    service = make_service(store, registry)
    spec = make_spec(TAUS[5])
    key = instance_key(spec, salt=service.broker.salt)
    assert store.contains(key)
    first = service.queue.submit(spec, key=key)  # in flight, not run
    joined = service.submit(make_spec(TAUS[5]))
    assert (first.status, joined.status) == ("queued", "coalesced")
    snap = service.metrics_snapshot()
    assert snap.get("surrogate.hit", 0) == 0
    assert snap.get("memo.hits", 0) == 0
    service.queue.cancel_pending()


def test_surrogate_service_defaults_ledger_to_corpus_journal(tmp_path):
    store = ContentStore(tmp_path / "store")
    gate = SurrogateGate(ModelRegistry(store))
    service = ScenarioService(store=store, surrogate=gate, parallel=False)
    assert service.broker.ledger is not None
    assert service.broker.ledger.path == corpus_ledger_path(store)


def test_exact_completions_feed_the_next_retrain(tmp_path):
    # The active-learning loop: with no model yet, a request runs exactly
    # and its completion lands in the corpus journal for the next train.
    store = ContentStore(tmp_path / "store")
    gate = SurrogateGate(ModelRegistry(store), metrics=MetricsRegistry())
    service = ScenarioService(store=store, surrogate=gate, parallel=False)
    adm = service.submit(make_spec(0.3))
    assert adm.status == "queued"  # miss: no model published yet
    service.broker.run_once()
    assert service.queue.status(adm.request_id).state == DONE
    corpus = build_corpus(store)
    assert len(corpus) == 1
    assert service.metrics_snapshot()["surrogate.miss"] == 1


def test_admit_resolved_counts_and_finishes_immediately():
    q = ScenarioQueue(metrics=MetricsRegistry())
    spec = make_spec(0.2)
    adm = q.admit_resolved(spec, result={"answer": 42},
                           key=instance_key(spec))
    rec = q.wait(adm.request_id, timeout_s=0.1)
    assert rec is not None and rec.state == DONE
    assert rec.result == {"answer": 42}
    assert not q.in_flight(adm.key)
    assert q.metrics.value("service.completed") == 1


def test_healthz_reports_the_attached_gate_and_its_model(trained):
    """``GET /v1/healthz`` on a service composed with ``--surrogate``."""
    import threading

    from repro.service import (
        ServiceClient,
        ServiceConfig,
        build_service,
        make_server,
    )

    store, _corpus, _model, registry = trained
    service = build_service(ServiceConfig(
        store_dir=str(store.root), surrogate=True, surrogate_rtol=0.5,
        serial=True))
    server = make_server(service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        health = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}").health()
    finally:
        server.shutdown()
        server.server_close()
    assert health["status"] == "ok"
    assert health["surrogate"]["enabled"] is True
    assert health["surrogate"]["rtol"] == 0.5
    assert health["surrogate"]["model"] == registry.latest_info()
    assert health["surrogate"]["model"] is not None
