"""The sharded service plane: cross-process coalescing, rolling drain.

These tests spawn real shard worker processes against one shared store
(CAS + lease table + terminal spool) and drive them over HTTP — the
multi-process contracts the single-process suite cannot cover:

- an identical scenario hitting two different shards executes once
  fleet-wide, and every caller gets the bit-identical payload;
- draining one shard mid-stream loses zero requests: its terminal
  records keep answering from the spool, and new submissions for its
  keys reroute to live siblings.
"""

import json
import threading

import pytest

from repro.core.parallel import InstanceSpec
from repro.obs.registry import MetricsRegistry
from repro.service import (
    Router,
    ServiceClient,
    ShardFleet,
    make_router_server,
    shard_of,
)
from repro.service.shard import (
    read_spool,
    rid_shard,
    spool_path,
)
from repro.store import ContentStore, LeaseTable, instance_key
from repro.store.memo import supervise_instances_memoized

SALT = "shard-tests"


def scenario(tau, *, days=6):
    return {"region": "VT", "params": {"TAU": tau}, "days": days,
            "scale": 1e-4, "seed": 3}


def spec_of(tau, *, days=6):
    return InstanceSpec(region_code="VT", params={"TAU": tau}, n_days=days,
                        scale=1e-4, seed=3, label="shard-test")


class TestAddressing:
    def test_shard_of_is_key_hash_mod_n(self):
        assert shard_of("0f", 4) == 15 % 4
        assert shard_of("10", 4) == 0

    def test_same_key_same_shard(self):
        key = instance_key(spec_of(0.2), salt=SALT)
        assert shard_of(key, 4) == shard_of(key, 4)

    def test_rid_shard_parses_the_prefix(self):
        assert rid_shard("s3-r000042") == 3
        assert rid_shard("s12-r000001") == 12
        assert rid_shard("r000042") is None
        assert rid_shard("sX-r000042") is None


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
            res = supervise_instances_memoized(
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
        supervise_instances_memoized([spec], store=store, leases=leases,
                                     parallel=False, salt=SALT)
        assert not leases.held(key)


@pytest.fixture()
def fleet(tmp_path):
    fleet = ShardFleet(tmp_path / "store", 2, batch_size=2,
                       serial=True, salt=SALT)
    fleet.start()
    yield fleet
    fleet.stop()


def shard_client(fleet, index, timeout_s=60.0):
    host, port = fleet.shards[index].address
    return ServiceClient(f"http://{host}:{port}", timeout_s=timeout_s)


class TestCrossProcessCoalescing:
    def test_same_key_on_two_shards_executes_once(self, fleet):
        """Submit the identical scenario directly to BOTH shard workers
        (bypassing key routing — the degraded-routing case the lease
        table exists for): one execution, bit-identical payloads."""
        clients = [shard_client(fleet, 0), shard_client(fleet, 1)]
        adms = [c.submit(scenario(0.27)) for c in clients]
        assert {rid_shard(adm["id"]) for adm in adms} == {0, 1}
        assert adms[0]["key"] == adms[1]["key"]

        views = [c.wait(adm["id"], timeout_s=120.0)
                 for c, adm in zip(clients, adms)]
        assert [v["state"] for v in views] == ["done", "done"]
        # Bit-identical across processes: both JSON payloads are the
        # exact float64 series of the one execution's CAS blob.
        assert views[0]["result"] == views[1]["result"]

        misses = sum(c.metrics().get("memo.misses", 0) for c in clients)
        assert misses == 1


class TestRollingDrain:
    def test_drain_loses_zero_requests(self, fleet, tmp_path):
        router = Router.for_fleet(fleet)
        server = make_router_server(router)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}",
                timeout_s=60.0)
            taus = [0.21, 0.24, 0.27, 0.3, 0.33, 0.36]
            adms = [client.submit(scenario(tau)) for tau in taus]
            owners = {rid_shard(adm["id"]) for adm in adms}
            assert owners == {0, 1}  # both shards own some of the burst

            # Rolling restart step: SIGTERM shard 0 mid-burst.  It stops
            # admitting, finishes everything it accepted, spools each
            # terminal record, and exits.
            assert fleet.drain_shard(0, timeout_s=120.0)
            assert not fleet.shards[0].alive()

            # Zero lost requests: every admitted id still reaches a
            # terminal answer through the router — live shards directly,
            # the drained shard via its spool + the shared CAS.
            views = {adm["id"]: client.wait(adm["id"], timeout_s=120.0)
                     for adm in adms}
            assert all(v["state"] == "done" for v in views.values())
            for adm in adms:
                assert views[adm["id"]]["result"]["confirmed"]

            # The drained shard's answers really came from its spool.
            spool = read_spool(spool_path(fleet.store_root, 0))
            drained = [adm["id"] for adm in adms
                       if rid_shard(adm["id"]) == 0]
            assert drained
            for rid in drained:
                assert spool[rid]["state"] == "done"
            assert router.registry.value("router.spool_hits") >= 1

            # New submissions for keys owned by the dead shard reroute
            # to the live sibling and still complete.
            from repro.service.api import spec_from_request

            rerouted = None
            for tau in (0.41, 0.44, 0.47, 0.5):
                # Compute the key exactly the way the router does, so we
                # pick a tau whose owner really is the drained shard.
                spec, _ = spec_from_request(scenario(tau))
                key = instance_key(spec, salt=SALT)
                if shard_of(key, 2) == 0:
                    rerouted = client.submit(scenario(tau))
                    break
            assert rerouted is not None
            assert rid_shard(rerouted["id"]) == 1
            assert router.registry.value("router.rerouted_submits") >= 1
            view = client.wait(rerouted["id"], timeout_s=120.0)
            assert view["state"] == "done"

            # Health reflects the degraded fleet.
            health = client.health()
            assert health["status"] == "degraded"
            states = {s["shard"]: s["status"] for s in health["shards"]}
            assert states[0] == "down" and states[1] == "ok"
        finally:
            server.shutdown()
            server.server_close()

    def test_spool_survives_torn_trailing_line(self, tmp_path):
        path = tmp_path / "spool" / "shard0.jsonl"
        path.parent.mkdir(parents=True)
        good = json.dumps({"event": "request_terminal", "id": "s0-r000001",
                           "key": "ab" * 32, "state": "done"})
        path.write_text(good + "\n" + good[: len(good) // 2])
        records = read_spool(path)
        assert set(records) == {"s0-r000001"}


def routed(fleet):
    """A router server over ``fleet`` plus a client on it (caller closes)."""
    server = make_router_server(Router.for_fleet(fleet))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}", timeout_s=60.0)
    return server, client


class TestRouterAggregates:
    def test_listing_merges_shards_and_metrics_sum(self, fleet):
        server, client = routed(fleet)
        try:
            adms = [client.submit(scenario(tau))
                    for tau in (0.21, 0.24, 0.27, 0.3, 0.33, 0.36)]
            for adm in adms:
                assert client.wait(adm["id"],
                                   timeout_s=120.0)["state"] == "done"
            ids = sorted(adm["id"] for adm in adms)
            assert {rid_shard(rid) for rid in ids} == {0, 1}

            # One page over both shards, in id order, summary views only.
            page = client.list(limit=50)
            assert [v["id"] for v in page["scenarios"]] == ids
            assert page["next_cursor"] is None and page["count"] == len(ids)
            assert all("result" not in v for v in page["scenarios"])

            # Keyset pagination across the shard boundary: the merged
            # cursor is the last id returned; following it visits every
            # request exactly once.
            seen, cursor = [], None
            while True:
                page = client.list(limit=4, cursor=cursor, state="done")
                seen += [v["id"] for v in page["scenarios"]]
                cursor = page["next_cursor"]
                if cursor is None:
                    break
                assert cursor == seen[-1]
            assert seen == ids

            # Fleet metrics are the numeric sum of the shards' snapshots
            # plus the router's own counters.
            shards = [shard_client(fleet, k).metrics() for k in (0, 1)]
            total = client.metrics()
            for name in ("service.completed", "memo.misses"):
                assert total[name] == sum(m.get(name, 0) for m in shards)
            assert total["service.completed"] == len(ids)
            assert all(m.get("service.completed", 0) > 0 for m in shards)
        finally:
            server.shutdown()
            server.server_close()


class TestOptionsReachTheShards:
    def test_retry_policy_and_fault_plan_reach_every_shard(self, tmp_path):
        """``max_attempts`` / ``inject`` / ``ledger`` are honoured by a
        shard exactly as by a single process: the first attempt of each
        instance raises, the retry completes it, the ledger records it."""
        ledger = tmp_path / "ledger.jsonl"
        with ShardFleet(tmp_path / "store", 2, serial=True, salt=SALT,
                        max_attempts=3, ledger=str(ledger),
                        inject=("worker.exception:times=1",)) as fleet:
            server, client = routed(fleet)
            try:
                adm = client.submit(scenario(0.29))
                view = client.wait(adm["id"], timeout_s=120.0)
                assert view["state"] == "done", view
                metrics = client.metrics()
                assert metrics["faults.worker.exception"] == 1
                assert metrics["retry.retries"] == 1
            finally:
                server.shutdown()
                server.server_close()
        events = [json.loads(line)["event"]
                  for line in ledger.read_text().splitlines()]
        assert events.count("instance_completed") == 1

    def test_the_spool_line_is_the_listing_view(self, tmp_path):
        """One rendering of a request: what a shard spools is what it
        lists (``record_view`` without the payload)."""
        from repro.service import ServiceConfig, build_service

        service = build_service(ServiceConfig(
            shard=0, store_dir=str(tmp_path / "store"), serial=True,
            salt=SALT))
        adm = service.submit(spec_of(0.23))
        assert adm.request_id.startswith("s0-")
        service.broker.run_once()
        [listed] = service.list()["scenarios"]
        assert listed["state"] == "done"
        spooled = read_spool(spool_path(tmp_path / "store", 0))
        assert spooled == {adm.request_id: listed}

    def test_unservable_combinations_are_refused_by_the_config(self, tmp_path):
        from repro.service import ServiceConfig

        with pytest.raises(ValueError, match="--surrogate"):
            ServiceConfig(shards=2, surrogate=True)
        with pytest.raises(ValueError, match="--surrogate"):
            ShardFleet(tmp_path / "store", 2, surrogate=True)
        with pytest.raises(ValueError, match="drop --no-cache"):
            ServiceConfig(shards=2, no_cache=True)
        with pytest.raises(ValueError, match="bad --inject spec"):
            ServiceConfig(inject=("no.such.site",))
