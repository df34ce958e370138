"""LeaseTable: the cross-process in-flight execution registry."""

import json
import os
import threading

import pytest

from repro.obs.registry import MetricsRegistry
from repro.store import (
    LEASE_DONE,
    LEASE_TIMEOUT,
    LEASE_VACATED,
    ContentStore,
    LeaseTable,
)

KEY = "ab" * 32


@pytest.fixture()
def table(tmp_path):
    return LeaseTable(tmp_path / "leases", owner="me",
                      metrics=MetricsRegistry())


class TestAcquireRelease:
    def test_acquire_wins_when_free(self, table):
        assert table.acquire(KEY)
        assert table.held(KEY)
        assert table.holder(KEY)["owner"] == "me"

    def test_second_acquire_loses(self, tmp_path, table):
        other = LeaseTable(tmp_path / "leases", owner="other")
        assert table.acquire(KEY)
        assert not other.acquire(KEY)
        assert other.metrics is not table.metrics

    def test_release_frees_the_key(self, tmp_path, table):
        table.acquire(KEY)
        assert table.release(KEY)
        assert not table.held(KEY)
        other = LeaseTable(tmp_path / "leases", owner="other")
        assert other.acquire(KEY)

    def test_release_never_drops_anothers_lease(self, tmp_path, table):
        """Lock hygiene: release is a no-op on a lease we don't own."""
        other = LeaseTable(tmp_path / "leases", owner="other")
        assert other.acquire(KEY)
        assert not table.release(KEY)
        assert other.holder(KEY)["owner"] == "other"

    def test_release_without_lease_is_noop(self, table):
        assert not table.release(KEY)

    def test_distinct_keys_are_independent(self, table):
        assert table.acquire(KEY)
        assert table.acquire("cd" * 32)

    def test_counters(self, tmp_path, table):
        other = LeaseTable(tmp_path / "leases", owner="other")
        table.acquire(KEY)
        other.acquire(KEY)
        assert table.metrics.value("lease.acquired") == 1
        assert other.metrics.value("lease.busy") == 1


class TestStaleness:
    def test_dead_owner_pid_is_broken(self, tmp_path, table):
        """A lease whose owner process died is stale and re-acquirable."""
        path = table.path_of(KEY)
        path.write_text(json.dumps(
            {"owner": "ghost", "pid": 2 ** 22 + 1, "ts": 10.0 ** 10}))
        assert not table.held(KEY)
        assert table.acquire(KEY)
        assert table.metrics.value("lease.broken") == 1

    def test_expired_ttl_is_broken(self, tmp_path):
        table = LeaseTable(tmp_path / "leases", owner="me", ttl_s=0.0)
        path = table.path_of(KEY)
        path.write_text(json.dumps(
            {"owner": "slow", "pid": os.getpid(), "ts": 0.0}))
        assert table.acquire(KEY)

    def test_torn_record_is_broken(self, table):
        """A crash mid-write leaves half a JSON line: breakable, exactly
        like a torn ledger line."""
        table.path_of(KEY).write_text('{"owner": "half')
        assert table.holder(KEY) == {}
        assert table.acquire(KEY)

    def test_live_same_pid_lease_is_not_stale(self, tmp_path, table):
        other = LeaseTable(tmp_path / "leases", owner="other")
        other.acquire(KEY)
        assert table.held(KEY)
        assert not table.acquire(KEY)


class TestHeartbeat:
    def test_renew_restamps_preserving_identity(self, tmp_path, table):
        table.acquire(KEY)
        before = table.holder(KEY)
        assert table.renew(KEY)
        after = table.holder(KEY)
        assert after["owner"] == before["owner"]
        assert after["pid"] == before["pid"]
        assert after["ts"] >= before["ts"]
        assert table.metrics.value("lease.renewed") == 1

    def test_renewed_slow_holder_is_not_stolen(self, tmp_path):
        """satellite: a slow-but-alive worker heartbeats on checkpoint
        writes — after renewal a lease whose original stamp has lapsed
        the TTL must NOT be re-acquirable by a contender."""
        table = LeaseTable(tmp_path / "leases", owner="slow", ttl_s=30.0)
        assert table.acquire(KEY)
        path = table.path_of(KEY)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["ts"] -= 3600.0
        path.write_text(json.dumps(record), encoding="utf-8")
        assert table.renew(KEY)
        other = LeaseTable(tmp_path / "leases", owner="thief", ttl_s=30.0)
        assert not other.acquire(KEY)
        assert table.holder(KEY)["owner"] == "slow"

    def test_dead_pid_is_stolen_despite_fresh_stamp(self, tmp_path, table):
        """Heartbeats don't shield a corpse: a fresh ts with a dead owner
        pid is still stale (the liveness probe outranks the clock)."""
        table.path_of(KEY).write_text(json.dumps(
            {"owner": "ghost", "pid": 2 ** 22 + 1, "ts": 10.0 ** 10}))
        assert table.acquire(KEY)
        assert table.holder(KEY)["owner"] == "me"

    def test_renew_on_free_key_is_noop(self, table):
        assert not table.renew(KEY)
        assert not table.path_of(KEY).exists()

    def test_renew_on_torn_record_is_noop(self, table):
        table.path_of(KEY).write_text('{"owner": "half')
        assert not table.renew(KEY)


class TestWait:
    def test_done_when_predicate_turns_true(self, tmp_path, table):
        other = LeaseTable(tmp_path / "leases", owner="other")
        other.acquire(KEY)
        flags = {"done": False}

        def publish():
            flags["done"] = True

        timer = threading.Timer(0.05, publish)
        timer.start()
        try:
            assert table.wait(KEY, lambda: flags["done"],
                              timeout_s=5.0) == LEASE_DONE
        finally:
            timer.cancel()

    def test_vacated_when_holder_releases_without_result(self, tmp_path,
                                                         table):
        other = LeaseTable(tmp_path / "leases", owner="other")
        other.acquire(KEY)
        timer = threading.Timer(0.05, other.release, args=(KEY,))
        timer.start()
        try:
            assert table.wait(KEY, lambda: False,
                              timeout_s=5.0) == LEASE_VACATED
        finally:
            timer.cancel()

    def test_vacated_immediately_when_free(self, table):
        assert table.wait(KEY, lambda: False) == LEASE_VACATED

    def test_timeout(self, tmp_path, table):
        other = LeaseTable(tmp_path / "leases", owner="other")
        other.acquire(KEY)
        assert table.wait(KEY, lambda: False,
                          timeout_s=0.05) == LEASE_TIMEOUT

    def test_stale_holder_vacates_the_wait(self, table):
        table.path_of(KEY).write_text(json.dumps(
            {"owner": "ghost", "pid": 2 ** 22 + 1, "ts": 10.0 ** 10}))
        assert table.wait(KEY, lambda: False,
                          timeout_s=5.0) == LEASE_VACATED


class TestThreadRace:
    def test_exactly_one_winner_per_key(self, tmp_path):
        """N contenders, one winner — the O_CREAT|O_EXCL guarantee."""
        tables = [LeaseTable(tmp_path / "leases", owner=f"t{i}")
                  for i in range(8)]
        wins = []
        barrier = threading.Barrier(len(tables))

        def contend(t):
            barrier.wait()
            if t.acquire(KEY):
                wins.append(t.owner)

        threads = [threading.Thread(target=contend, args=(t,))
                   for t in tables]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1


class TestLeaseDirConvention:
    def test_shard_lease_dir_sits_inside_the_store(self, tmp_path):
        from repro.store.cas import lease_dir

        store = ContentStore(tmp_path / "store")
        table = LeaseTable(lease_dir(store.root), owner="serve0")
        assert table.acquire(KEY)
        assert (tmp_path / "store" / "leases" / f"{KEY}.lease").exists()
