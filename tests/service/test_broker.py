"""Broker loop: memoized batches, terminal-state mapping, fault handling."""

import dataclasses

import numpy as np
import pytest

from repro.core.parallel import InstanceSpec
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Tracer
from repro.resilience import FaultPlan, RetryPolicy
from repro.service import (
    BadRequest,
    ServiceConfig,
    build_service,
    spec_from_request,
)
from repro.service.broker import Broker
from repro.service.queue import DONE, FAILED, ScenarioQueue
from repro.store.cas import ContentStore

pytestmark = pytest.mark.fast


def make_spec(i=0, tau=0.25):
    return InstanceSpec(region_code="VT", params={"TAU": tau},
                        n_days=10, scale=1e-3, seed=300 + i,
                        label=f"b{i}")


@pytest.fixture()
def store(tmp_path):
    return ContentStore(tmp_path / "store")


def make_broker(store=None, **kw):
    reg = MetricsRegistry()
    q = ScenarioQueue(metrics=reg)
    kw.setdefault("parallel", False)
    return q, Broker(q, store=store, registry=reg, **kw)


def test_run_once_completes_requests(store):
    q, broker = make_broker(store)
    a = q.submit(make_spec(0))
    b = q.submit(make_spec(1))
    resolved = broker.run_once()
    assert resolved == 2
    for adm in (a, b):
        rec = q.status(adm.request_id)
        assert rec.state == DONE
        assert set(rec.result) == {"confirmed", "attack_rate",
                                   "transitions"}
    assert broker.registry.value("service.completed") == 2
    assert store.metrics.value("store.puts") == 2


def test_resubmit_serves_from_store_without_executing(store):
    q, broker = make_broker(store)
    first = q.submit(make_spec(0))
    broker.run_once()
    executed = broker.registry.value("runner.instances")
    again = q.submit(make_spec(0))
    assert again.status == "queued"  # first entry already resolved
    broker.run_once()
    # Store hit: no new engine execution, payload bit-identical.
    assert broker.registry.value("runner.instances") == executed
    assert broker.registry.value("memo.hits") == 1
    r1 = q.status(first.request_id).result
    r2 = q.status(again.request_id).result
    for name in r1:
        np.testing.assert_array_equal(r1[name], r2[name])


def test_faulted_batch_reaches_terminal_states(store):
    # One spec is targeted by a persistent fault.  Its batch group fails
    # as a unit, so a bystander in the same group fails with it, while a
    # request in another group (another horizon) still completes; every
    # request reports a terminal state.
    q, broker = make_broker(
        store,
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, seed=1),
        faults=FaultPlan.parse(["worker.exception:times=99,match=b0"],
                               seed=1))
    bad = q.submit(make_spec(0))
    bystander = q.submit(make_spec(2))
    good = q.submit(dataclasses.replace(make_spec(1), n_days=11))
    resolved = broker.run_once()
    assert resolved == 3
    rec = q.status(bad.request_id)
    assert rec.state == FAILED
    assert rec.kind == "transient"
    assert "worker.exception" in rec.error
    assert q.status(bystander.request_id).state == FAILED
    assert q.status(good.request_id).state == DONE
    assert broker.registry.value("service.failed") == 2
    assert broker.registry.value("service.completed") == 1


def test_malformed_params_never_fail_a_well_formed_request(tmp_path):
    # A param the runner rejects is refused at admission: it can no
    # longer join, and fail, another client's batch group.
    service = build_service(ServiceConfig(
        serial=True, batch_size=4, store_dir=str(tmp_path / "store")))
    good = {"region": "VT", "params": {"TAU": 0.3}, "days": 10,
            "scale": 0.001, "seed": 1, "asset_seed": 0}
    admitted = []
    for body in (good,
                 {**good, "params": {"TAU": 0.3, "SYMP": "abc"},
                  "seed": 2},
                 {**good, "params": {"TAU": "abc"}, "seed": 2}):
        try:
            spec, priority = spec_from_request(body)
        except BadRequest:
            continue
        admitted.append(service.submit(spec, priority=priority))
    service.broker.run_once()
    assert [service.queue.status(a.request_id).state
            for a in admitted] == [DONE]


def test_worker_crash_recovers_transient(store):
    # The acceptance drill: a pool worker dies hard once; the pool is
    # rebuilt and every request still completes.
    q, broker = make_broker(
        store, parallel=True, max_workers=2,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, seed=1),
        faults=FaultPlan.parse(["worker.crash:times=1,match=b0"], seed=1))
    crashed = q.submit(make_spec(0))
    other = q.submit(make_spec(1))
    broker.run_once()
    assert q.status(crashed.request_id).state == DONE
    assert q.status(other.request_id).state == DONE
    assert broker.registry.value("retry.pool_rebuilds") >= 1


def test_worker_crash_persistent_never_hangs(store):
    # A spec that kills every pool it touches: the supervisor exhausts
    # its rebuild budget and gives up, but every request still reaches a
    # terminal state — the no-hang guarantee, not a partial-result one.
    q, broker = make_broker(
        store, parallel=True, max_workers=2,
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, seed=1),
        faults=FaultPlan.parse(["worker.crash:times=99,match=b0"],
                               seed=1))
    bad = q.submit(make_spec(0))
    good = q.submit(make_spec(1))
    resolved = broker.run_once()
    assert resolved == 2
    states = {q.status(a.request_id).state for a in (bad, good)}
    assert states <= {DONE, FAILED}
    rec = q.status(bad.request_id)
    assert rec.state == FAILED and rec.error


def test_batch_size_bounds_each_claim(store):
    q, broker = make_broker(store, batch_size=2)
    for i in range(3):
        q.submit(make_spec(i))
    assert broker.run_once() == 2
    assert q.depth() == 1
    assert broker.run_once() == 1


def test_background_loop_drains_and_stops(store):
    q, broker = make_broker(store)
    broker.start()
    assert broker.running
    adm = q.submit(make_spec(0))
    rec = q.wait(adm.request_id, timeout_s=30.0)
    assert rec.state == DONE
    broker.stop(drain=True, timeout_s=10.0)
    assert not broker.running


def test_non_drain_stop_cancels_pending(store):
    q, broker = make_broker(store)
    adm = q.submit(make_spec(0))
    broker.stop(drain=False, timeout_s=1.0)  # never started: just cancel
    rec = q.status(adm.request_id)
    assert rec.state == "cancelled"
    assert rec.error == "service stopped"


def test_broker_records_request_spans(store, tmp_path):
    tracer = Tracer(tmp_path / "trace.jsonl", run_id="svc-test")
    q, broker = make_broker(store, tracer=tracer)
    a = q.submit(make_spec(0))
    q.submit(make_spec(0))  # coalesced join shares the span batch
    with tracer:
        broker.run_once()
    body = (tmp_path / "trace.jsonl").read_text()
    assert f"request:{a.request_id}" in body
    assert "service:batch" in body


def test_metrics_view_merges_store_counters(store):
    q, broker = make_broker(store)
    q.submit(make_spec(0))
    broker.run_once()
    snap = broker.metrics_view().snapshot()
    assert snap["service.completed"] == 1
    assert snap["store.puts"] == 1
    assert snap["memo.misses"] == 1


def test_batch_size_validation():
    q = ScenarioQueue()
    with pytest.raises(ValueError):
        Broker(q, batch_size=0)
