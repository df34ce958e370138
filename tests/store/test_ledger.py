"""Run-ledger journaling and replay."""

import json

import pytest

from repro.store.ledger import RunLedger, replay_ledger

pytestmark = pytest.mark.fast


@pytest.fixture()
def path(tmp_path):
    return tmp_path / "run.jsonl"


def test_append_and_replay(path):
    with RunLedger(path, run_id="night-1") as ledger:
        ledger.run_started(n_instances=2)
        ledger.instance_completed("k1", label="a", wall_s=1.5)
        ledger.instance_completed("k2", label="b", wall_s=2.5)
        ledger.run_completed(hits=0, misses=2)
    replay = replay_ledger(path)
    assert replay.count("instance_completed") == 2
    assert replay.completed() == {"k1", "k2"}
    assert sum(e["wall_s"] for e in replay.events
               if e["event"] == "instance_completed") == 4.0
    assert all(e["run_id"] == "night-1" for e in replay.events)


def test_events_are_one_json_line_each(path):
    ledger = RunLedger(path)
    ledger.instance_completed("k", label="x")
    ledger.cache_hit("k", label="x")
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert records[0]["event"] == "instance_completed"
    assert records[1]["event"] == "cache_hit"
    assert all("ts" in r for r in records)


def test_completed_with_field_filters(path):
    ledger = RunLedger(path)
    ledger.instance_completed("k1", task_id="VA-c0", night="n1")
    ledger.instance_completed("k2", task_id="VA-c1", night="n2")
    replay = replay_ledger(path)
    assert replay.completed("task_id") == {"VA-c0", "VA-c1"}
    assert replay.completed("task_id", night="n1") == {"VA-c0"}
    assert replay.completed("task_id", night="n3") == set()


def test_missing_file_replays_empty(tmp_path):
    replay = replay_ledger(tmp_path / "never-written.jsonl")
    assert replay.events == ()
    assert replay.completed() == set()


def test_torn_final_line_is_skipped(path):
    ledger = RunLedger(path)
    ledger.instance_completed("k1")
    ledger.close()
    with open(path, "a") as fh:
        fh.write('{"event": "instance_completed", "key": "k2"')  # torn
    replay = replay_ledger(path)
    assert replay.completed() == {"k1"}


def test_non_event_lines_are_skipped(path):
    path.write_text('42\n{"no_event": true}\n\n'
                    '{"event": "cache_hit", "key": "k"}\n')
    replay = replay_ledger(path)
    assert replay.count("cache_hit") == 1
    assert len(replay.events) == 1


def test_appends_accumulate_across_handles(path):
    RunLedger(path).instance_completed("k1")
    RunLedger(path).instance_completed("k2")
    assert replay_ledger(path).completed() == {"k1", "k2"}


def test_instance_failed_recorded(path):
    RunLedger(path).instance_failed("k1", error="boom")
    replay = replay_ledger(path)
    assert replay.count("instance_failed") == 1
    assert replay.events[0]["error"] == "boom"
    assert replay.completed() == set()


def test_summary_and_counts(path):
    ledger = RunLedger(path)
    ledger.cache_hit("a")
    ledger.cache_hit("b")
    ledger.instance_completed("c")
    replay = replay_ledger(path)
    assert replay.counts() == {"cache_hit": 2, "instance_completed": 1}
    assert "cache_hit=2" in replay.summary()


def test_concurrent_appends_all_parse(path):
    """A service's handler threads journal admission hits beside its
    broker thread: every line must come out whole."""
    import sys
    import threading

    ledger = RunLedger(path)
    n_threads, n_events = 8, 300

    def work(t):
        for i in range(n_events):
            ledger.cache_hit(f"k{t}-{i}", label="x" * (i % 97))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
        ledger.close()
    assert not any(t.is_alive() for t in threads)
    lines = path.read_text().splitlines()
    assert len(lines) == n_threads * n_events
    keys = {json.loads(line)["key"] for line in lines}
    assert len(keys) == n_threads * n_events
