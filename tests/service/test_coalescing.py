"""Request coalescing under concurrent submitters.

The satellite contract: N threads submit the identical scenario, exactly
one simulation executes, and every submitter receives a bit-identical
payload.
"""

import threading

import numpy as np
import pytest

from repro.core.parallel import InstanceSpec
from repro.obs.registry import MetricsRegistry
from repro.service.broker import Broker
from repro.service.queue import DONE, ScenarioQueue
from repro.store.cas import ContentStore

pytestmark = pytest.mark.fast

N_SUBMITTERS = 8


def make_spec():
    # Every submitter builds its own (equal) spec object: coalescing must
    # key on the canonical cache key, not object identity.
    return InstanceSpec(region_code="VT", params={"TAU": 0.3},
                       n_days=10, scale=1e-3, seed=77, label="co")


def submit_all(queue, n=N_SUBMITTERS):
    """n threads race through a barrier into queue.submit."""
    barrier = threading.Barrier(n)
    admissions = [None] * n

    def worker(slot):
        barrier.wait()
        admissions[slot] = queue.submit(make_spec())

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return admissions


def test_concurrent_identical_submits_execute_once(tmp_path):
    # Broker idle until all submitters are in: deterministic counters.
    reg = MetricsRegistry()
    queue = ScenarioQueue(metrics=reg)
    store = ContentStore(tmp_path / "store")
    broker = Broker(queue, store=store, registry=reg, parallel=False)

    admissions = submit_all(queue)
    assert all(adm.admitted for adm in admissions)
    assert len({adm.key for adm in admissions}) == 1
    assert queue.depth() == 1  # one entry, N-1 joins
    assert reg.value("service.admitted") == 1
    assert reg.value("service.coalesced") == N_SUBMITTERS - 1

    broker.run_once()

    # Exactly one simulation executed for the whole stampede.
    assert reg.value("runner.instances") == 1
    assert store.metrics.value("store.puts") == 1
    assert reg.value("memo.misses") == 1
    assert reg.value("service.completed") == N_SUBMITTERS

    payloads = [queue.status(adm.request_id).result for adm in admissions]
    reference = payloads[0]
    for payload in payloads:
        assert queue.status(admissions[0].request_id).state == DONE
        for name in reference:
            np.testing.assert_array_equal(payload[name], reference[name])
            assert payload[name].dtype == reference[name].dtype


def test_concurrent_submits_against_live_broker(tmp_path):
    # The racy variant: the broker may claim the entry mid-stampede, so a
    # late submitter can open a second entry — but the store guarantees
    # at most one *execution* and bit-identical results throughout.
    reg = MetricsRegistry()
    queue = ScenarioQueue(metrics=reg)
    store = ContentStore(tmp_path / "store")
    broker = Broker(queue, store=store, registry=reg,
                    parallel=False).start()
    try:
        admissions = submit_all(queue)
        records = [queue.wait(adm.request_id, timeout_s=30.0)
                   for adm in admissions]
    finally:
        broker.stop(drain=True, timeout_s=10.0)

    assert all(rec.state == DONE for rec in records)
    assert reg.value("runner.instances") == 1
    assert store.metrics.value("store.puts") == 1
    reference = records[0].result
    for rec in records:
        for name in reference:
            np.testing.assert_array_equal(rec.result[name],
                                          reference[name])
