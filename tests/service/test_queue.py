"""Admission queue: priority, deterministic aging, coalescing, backpressure."""

import pytest

from repro.core.parallel import InstanceSpec
from repro.service import queue as queue_module
from repro.service.queue import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    ScenarioQueue,
)

pytestmark = pytest.mark.fast


def make_spec(i=0, tau=0.25):
    return InstanceSpec(region_code="VT", params={"TAU": tau},
                        n_days=10, scale=1e-3, seed=100 + i,
                        label=f"q{i}")


def test_submit_admits_and_tracks():
    q = ScenarioQueue()
    adm = q.submit(make_spec(0))
    assert adm.admitted and adm.status == "queued"
    assert adm.request_id == "r000001"
    assert q.depth() == 1
    rec = q.status(adm.request_id)
    assert rec.state == QUEUED and rec.key == adm.key
    assert q.metrics.value("service.admitted") == 1
    assert q.metrics.value("service.queue_depth") == 1


def test_unknown_request_is_none():
    q = ScenarioQueue()
    assert q.status("r999999") is None
    assert q.wait("r999999") is None


def test_backpressure_rejects_with_retry_hint():
    q = ScenarioQueue(capacity=2)
    q.submit(make_spec(0))
    q.submit(make_spec(1))
    adm = q.submit(make_spec(2))
    assert not adm.admitted
    assert adm.status == "rejected" and adm.reason == "full"
    assert adm.retry_after_s == pytest.approx(0.5)
    assert adm.request_id is None
    assert q.metrics.value("service.rejected") == 1
    # Coalescing joins are always admitted: they add no load.
    joined = q.submit(make_spec(0))
    assert joined.admitted and joined.status == "coalesced"


def test_draining_queue_rejects_everything():
    q = ScenarioQueue()
    q.close()
    adm = q.submit(make_spec(0))
    assert not adm.admitted and adm.reason == "draining"


def test_coalescing_same_key_one_entry():
    q = ScenarioQueue()
    a = q.submit(make_spec(0))
    b = q.submit(make_spec(0))
    assert b.status == "coalesced" and b.key == a.key
    assert q.depth() == 1
    assert q.metrics.value("service.coalesced") == 1
    claims = q.claim(4)
    assert len(claims) == 1
    assert claims[0].request_ids == (a.request_id, b.request_id)


def test_claim_order_is_priority_then_fifo():
    q = ScenarioQueue()
    low = q.submit(make_spec(0), priority=0)
    high = q.submit(make_spec(1), priority=5)
    low2 = q.submit(make_spec(2), priority=0)
    keys = [c.key for c in q.claim(3)]
    assert keys == [high.key, low.key, low2.key]


def test_deterministic_aging_prevents_starvation():
    # One background entry vs a steady urgent flood that would win on raw
    # priority forever.  Each admission that passes over the waiting entry
    # ages it, so it must be served within a bounded number of rounds.
    q = ScenarioQueue(aging_every=2)
    old = q.submit(make_spec(0), priority=0)
    served = []
    for i in range(1, 10):
        q.submit(make_spec(i), priority=2)
        served.append(q.claim(1)[0].key)
        if old.key in served:
            break
    # effective = 0 + admissions_since // 2 catches a priority-2 flood
    # after a handful of rounds (deterministically: round 3 here).
    assert old.key in served
    assert len(served) == 3


def test_coalescing_join_reprioritizes_queued_entry():
    q = ScenarioQueue()
    a = q.submit(make_spec(0), priority=0)
    b = q.submit(make_spec(1), priority=3)
    # Urgent duplicate of the first scenario promotes the queued entry.
    j = q.submit(make_spec(0), priority=9)
    assert j.status == "coalesced"
    assert q.metrics.value("service.reprioritized") == 1
    assert q.claim(1)[0].key == a.key
    assert q.status(a.request_id).priority == 9
    assert b.key != a.key


def test_running_entry_is_not_preempted():
    q = ScenarioQueue()
    a = q.submit(make_spec(0), priority=0)
    (claim,) = q.claim(1)
    assert claim.key == a.key
    # A late urgent join coalesces onto the running entry but cannot
    # re-order it (its RNG streams are already committed) ...
    j = q.submit(make_spec(0), priority=9)
    assert j.status == "coalesced"
    assert q.metrics.value("service.reprioritized") == 0
    # ... and still receives the one result.
    q.complete(claim.key, {"x": 1})
    assert q.status(j.request_id).state == DONE
    assert q.status(j.request_id).result == {"x": 1}


def test_complete_resolves_every_joined_request():
    q = ScenarioQueue()
    a = q.submit(make_spec(0))
    b = q.submit(make_spec(0))
    (claim,) = q.claim(1)
    assert q.status(a.request_id).state == RUNNING
    n = q.complete(claim.key, {"payload": 42})
    assert n == 2
    for adm in (a, b):
        rec = q.status(adm.request_id)
        assert rec.state == DONE
        assert rec.result == {"payload": 42}
        assert rec.total_s is not None
    assert q.metrics.value("service.completed") == 2
    assert q.depth() == 0


def test_fail_is_terminal_with_triage():
    q = ScenarioQueue()
    a = q.submit(make_spec(0))
    (claim,) = q.claim(1)
    q.fail(claim.key, error="worker died", kind="transient")
    rec = q.status(a.request_id)
    assert rec.state == FAILED
    assert rec.error == "worker died" and rec.kind == "transient"
    assert q.metrics.value("service.failed") == 1
    # wait() returns immediately on a terminal record.
    assert q.wait(a.request_id, timeout_s=0.1).state == FAILED


def test_cancel_pending_terminalizes_queued_only():
    q = ScenarioQueue()
    running = q.submit(make_spec(0))
    q.claim(1)
    queued = q.submit(make_spec(1))
    n = q.cancel_pending()
    assert n == 1
    assert q.status(queued.request_id).state == CANCELLED
    assert q.status(running.request_id).state == RUNNING
    assert q.metrics.value("service.cancelled") == 1


def test_finished_records_are_bounded(monkeypatch):
    monkeypatch.setattr(queue_module, "MAX_FINISHED", 2)
    q = ScenarioQueue()
    admitted = [q.submit(make_spec(i)) for i in range(4)]
    for claim in q.claim(4):
        q.complete(claim.key, {})
    # Only the two newest finished records survive.
    assert q.status(admitted[0].request_id) is None
    assert q.status(admitted[1].request_id) is None
    assert q.status(admitted[3].request_id).state == DONE


def test_wait_for_work_sees_queued_and_closed():
    q = ScenarioQueue()
    assert not q.wait_for_work(timeout_s=0.01)
    q.submit(make_spec(0))
    assert q.wait_for_work(timeout_s=0.01)
    q.claim(1)
    assert not q.wait_for_work(timeout_s=0.01)
    q.close()
    assert q.wait_for_work(timeout_s=0.01)


def test_validation():
    with pytest.raises(ValueError):
        ScenarioQueue(capacity=0)
    with pytest.raises(ValueError):
        ScenarioQueue(aging_every=0)
