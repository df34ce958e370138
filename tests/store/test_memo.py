"""Cache-aware instance execution: hits, misses, order, bit-identity."""

import threading

import numpy as np
import pytest

from repro.core.parallel import (
    InstanceSpec,
    run_instances,
    supervise_instances,
)
from repro.obs.registry import MetricsRegistry
from repro.store.cas import ContentStore, LeaseTable
from repro.store.keys import instance_key
from repro.store.ledger import RunLedger, replay_ledger
from repro.store.memo import (
    outcome_from_payload,
    outcome_payload,
    run_instances_memoized,
)


def make_specs(n=3, region="VT", n_days=20):
    return [
        InstanceSpec(region_code=region, params={"TAU": 0.25},
                     n_days=n_days, scale=1e-3, seed=500 + i,
                     label=f"m{i}")
        for i in range(n)
    ]


@pytest.fixture()
def store(tmp_path):
    return ContentStore(tmp_path / "store")


def test_cold_run_matches_plain_execution(store):
    specs = make_specs()
    plain = run_instances(specs, parallel=False)
    memo = run_instances_memoized(specs, store=store, parallel=False)
    for p, m in zip(plain, memo):
        assert p.spec == m.spec
        np.testing.assert_array_equal(p.confirmed, m.confirmed)
        assert p.attack_rate == m.attack_rate
        assert p.transitions == m.transitions
    assert store.metrics.value("store.misses") == len(specs)
    assert store.metrics.value("store.puts") == len(specs)


def test_warm_run_executes_nothing_and_is_bit_identical(store):
    specs = make_specs()
    cold = run_instances_memoized(specs, store=store, parallel=False)
    assert store.metrics.value("store.misses") == len(specs)
    warm = run_instances_memoized(specs, store=store, parallel=False)
    # unchanged: zero executions
    assert store.metrics.value("store.misses") == len(specs)
    assert store.metrics.value("store.hits") == len(specs)
    for c, w in zip(cold, warm):
        np.testing.assert_array_equal(c.confirmed, w.confirmed)
        assert c.confirmed.dtype == w.confirmed.dtype == np.float64
        assert c.attack_rate == w.attack_rate
        assert c.transitions == w.transitions
        assert c.spec == w.spec


def test_partial_overlap_runs_only_misses(store):
    run_instances_memoized(make_specs(2), store=store, parallel=False)
    specs = make_specs(4)  # first two cached, last two new
    out = run_instances_memoized(specs, store=store, parallel=False)
    assert [o.spec.label for o in out] == [s.label for s in specs]
    assert store.metrics.value("store.hits") == 2
    # cold probe of 2 + new probe of 2
    assert store.metrics.value("store.misses") == 2 + 2


def test_duplicate_specs_execute_once(store):
    spec = make_specs(1)[0]
    twin = InstanceSpec(region_code=spec.region_code, params=spec.params,
                        n_days=spec.n_days, scale=spec.scale,
                        seed=spec.seed, label="twin",
                        asset_seed=spec.asset_seed)
    out = run_instances_memoized([spec, twin], store=store, parallel=False)
    # one execution for both positions
    assert store.metrics.value("store.puts") == 1
    np.testing.assert_array_equal(out[0].confirmed, out[1].confirmed)
    assert out[0].spec.label == spec.label
    assert out[1].spec.label == "twin"


def test_no_store_falls_back_to_plain(tmp_path):
    specs = make_specs(2)
    plain = run_instances(specs, parallel=False)
    memo = run_instances_memoized(specs, store=None, parallel=False)
    for p, m in zip(plain, memo):
        np.testing.assert_array_equal(p.confirmed, m.confirmed)


def test_empty_specs(store):
    assert run_instances_memoized([], store=store) == []


def test_ledger_records_hits_and_executions(store, tmp_path):
    ledger = RunLedger(tmp_path / "run.jsonl")
    specs = make_specs(2)
    run_instances_memoized(specs, store=store, ledger=ledger,
                           parallel=False)
    run_instances_memoized(specs, store=store, ledger=ledger,
                           parallel=False)
    replay = replay_ledger(tmp_path / "run.jsonl")
    assert replay.count("instance_completed") == 2
    assert replay.count("cache_hit") == 2
    assert replay.count("run_started") == 2
    assert replay.count("run_completed") == 2
    keys = {instance_key(s) for s in specs}
    assert replay.completed() == keys


def test_payload_roundtrip_preserves_outcome():
    spec = make_specs(1)[0]
    outcome = run_instances([spec], parallel=False)[0]
    rebuilt = outcome_from_payload(spec, outcome_payload(outcome))
    np.testing.assert_array_equal(outcome.confirmed, rebuilt.confirmed)
    assert rebuilt.attack_rate == outcome.attack_rate
    assert rebuilt.transitions == outcome.transitions
    assert rebuilt.spec is spec


def test_salt_partitions_the_store(store):
    specs = make_specs(1)
    run_instances_memoized(specs, store=store, salt="v1", parallel=False)
    run_instances_memoized(specs, store=store, salt="v2", parallel=False)
    # different salt, different blob
    assert store.metrics.value("store.puts") == 2
    run_instances_memoized(specs, store=store, salt="v1", parallel=False)
    assert store.metrics.value("store.puts") == 2
    assert store.metrics.value("store.hits") == 1


def test_raise_keeps_what_completed_before_the_failure(store, tmp_path):
    """Regression: results used to be published only after the whole
    fan-out returned, so under ``on_failure="raise"`` one failing group
    threw away every group that had already completed."""
    from repro.obs import MetricsRegistry
    from repro.resilience import FaultPlan, InjectedFault

    kept = make_specs(2)  # VT: the first group
    lost = [InstanceSpec(region_code="WY", params={"TAU": 0.25}, n_days=20,
                         scale=1e-3, seed=600 + i, label=f"poison{i}")
            for i in range(2)]  # WY: the second group, every lane faulted
    specs = kept + lost
    ledger = RunLedger(tmp_path / "run.jsonl")
    faults = FaultPlan.parse(["worker.exception:times=99,match=poison"],
                             seed=0)
    with pytest.raises(InjectedFault):
        run_instances_memoized(specs, store=store, ledger=ledger,
                               parallel=False, faults=faults)
    for s in kept:
        assert store.contains(instance_key(s))
    for s in lost:
        assert not store.contains(instance_key(s))
    assert (replay_ledger(tmp_path / "run.jsonl").completed()
            == {instance_key(s) for s in kept})

    reg = MetricsRegistry()
    again = run_instances_memoized(specs, store=store, ledger=ledger,
                                   parallel=False, registry=reg)
    assert reg.value("memo.hits") == len(kept)
    assert reg.value("memo.misses") == len(lost)
    assert reg.value("runner.instances") == len(lost)
    for got, want in zip(again, run_instances(specs, parallel=False)):
        assert got.spec == want.spec
        assert got.confirmed.tobytes() == want.confirmed.tobytes()
        assert got.attack_rate == want.attack_rate
        assert got.transitions == want.transitions


# -- a miss whose lease another process holds (memo._resolve_remote) ----------


def test_vacated_lease_is_taken_over_and_executed_locally(store):
    """The holder releases without publishing (it crashed or quarantined
    the spec): the waiter contends, wins, executes here and publishes."""
    import threading

    from repro.core.parallel import supervise_instances
    from repro.obs.registry import MetricsRegistry
    from repro.store.cas import LeaseTable

    [spec] = make_specs(1, n_days=5)
    key = instance_key(spec)
    holder = LeaseTable(store.root / "leases", owner="holder")
    waiter = LeaseTable(store.root / "leases", owner="waiter")
    assert holder.acquire(key)
    vacate = threading.Timer(0.2, holder.release, args=(key,))
    vacate.start()
    reg = MetricsRegistry()
    try:
        res = supervise_instances(
            [spec], store=store, leases=waiter, registry=reg, parallel=False)
    finally:
        vacate.join()
    [plain] = run_instances([spec], parallel=False)
    np.testing.assert_array_equal(res.results[0].confirmed, plain.confirmed)
    assert not res.quarantined
    assert waiter.metrics.value("lease.waits") == 1
    assert reg.value("memo.remote_hits") == 0  # executed, not served
    assert store.contains(key)  # ... and published for the next caller
    assert not waiter.held(key)


def test_lease_held_past_the_wait_bound_quarantines_once(store, monkeypatch):
    from repro.core.parallel import supervise_instances
    from repro.store import memo
    from repro.store.cas import LeaseTable

    monkeypatch.setattr(memo, "LEASE_WAIT_S", 0.1)
    specs = make_specs(2, n_days=5)
    stuck = instance_key(specs[0])
    holder = LeaseTable(store.root / "leases", owner="holder")
    assert holder.acquire(stuck)
    res = supervise_instances(
        specs, store=store, parallel=False,
        leases=LeaseTable(store.root / "leases", owner="waiter"))
    # The stuck key gives up with one triage record; its sibling ran.
    assert res.results[0] is None and res.results[1] is not None
    [rec] = res.quarantined
    assert rec.kind == "lease" and rec.item is specs[0]
    assert holder.held(stuck)  # never broken: the holder is alive
    assert not store.contains(stuck)


SALT = "lease-tests"


def spec_of(tau, *, days=6):
    return InstanceSpec(region_code="VT", params={"TAU": tau}, n_days=days,
                        scale=1e-4, seed=3, label="lease-test")


class TestLeaseCoalescingInProcess:
    """The memo-level contract, with two lease handles over one store."""

    def test_concurrent_memoized_fanouts_execute_once(self, tmp_path):
        store_a = ContentStore(tmp_path / "store")
        store_b = ContentStore(tmp_path / "store")
        leases_a = LeaseTable(tmp_path / "store" / "leases", owner="a")
        leases_b = LeaseTable(tmp_path / "store" / "leases", owner="b")
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        spec = spec_of(0.31)
        barrier = threading.Barrier(2)
        results = {}

        def run(name, store, leases, reg):
            barrier.wait()
            res = supervise_instances(
                [spec], store=store, leases=leases, registry=reg,
                parallel=False, salt=SALT)
            results[name] = res.results[0]

        threads = [
            threading.Thread(target=run,
                             args=("a", store_a, leases_a, reg_a)),
            threading.Thread(target=run,
                             args=("b", store_b, leases_b, reg_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Exactly one execution fleet-wide; the loser either waited on
        # the winner's lease (remote hit) or read the published blob.
        misses = (reg_a.value("memo.misses") + reg_b.value("memo.misses"))
        assert misses == 1
        served = (reg_a.value("memo.hits") + reg_b.value("memo.hits")
                  + reg_a.value("memo.remote_hits")
                  + reg_b.value("memo.remote_hits"))
        assert served == 1
        a, b = results["a"], results["b"]
        assert (a.confirmed == b.confirmed).all()
        assert a.attack_rate == b.attack_rate

    def test_leases_released_after_the_batch(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        leases = LeaseTable(tmp_path / "store" / "leases", owner="a")
        spec = spec_of(0.33)
        key = instance_key(spec, salt=SALT)
        supervise_instances([spec], store=store, leases=leases,
                            parallel=False, salt=SALT)
        assert not leases.held(key)


def test_summary_half_hit_executes_once_and_keeps_outcome_blob(store):
    """An outcome stored without its summary is a miss for a summary
    caller: the spec runs once, the outcome blob keeps its bytes, and the
    next summary call is a full hit."""
    from repro.analytics.aggregate import summarize
    from repro.core.runner import load_region_assets, run_instance

    [spec] = make_specs(n=1)
    [plain] = run_instances([spec], store=store, parallel=False,
                            registry=MetricsRegistry())
    assert plain.summary is None
    blob = store.path_of(instance_key(spec)).read_bytes()

    reg = MetricsRegistry()
    [full] = run_instances([spec], store=store, parallel=False,
                           registry=reg, summary=True)
    assert (reg.value("memo.hits"), reg.value("memo.misses")) == (0, 1)
    assert store.path_of(instance_key(spec)).read_bytes() == blob
    np.testing.assert_array_equal(full.confirmed, plain.confirmed)

    reg = MetricsRegistry()
    [again] = run_instances([spec], store=store, parallel=False,
                            registry=reg, summary=True)
    assert (reg.value("memo.hits"), reg.value("memo.misses")) == (1, 0)
    result, model = run_instance(
        load_region_assets(spec.region_code, spec.scale, spec.asset_seed),
        spec.params, n_days=spec.n_days, seed=spec.seed)
    want = summarize(result, model)
    for got in (full.summary, again.summary):
        assert (got.region_code, got.n_days) == (want.region_code,
                                                 want.n_days)
        for kind in ("new", "current", "cumulative"):
            np.testing.assert_array_equal(getattr(got, kind),
                                          getattr(want, kind))
