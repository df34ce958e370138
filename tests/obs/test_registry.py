"""Metrics registry: kinds, merge semantics, snapshots, the global sink."""

import pickle

import pytest

from repro.obs.registry import (
    COUNTER,
    GAUGE,
    TIMER,
    MetricsRegistry,
    Stopwatch,
    global_registry,
)

pytestmark = pytest.mark.fast


def test_counter_gauge_timer_basics():
    r = MetricsRegistry()
    assert r.inc("a.hits") == 1
    assert r.inc("a.hits", 4) == 5
    r.gauge("a.util", 0.5)
    r.gauge("a.util", 0.9)
    r.observe("a.wait_s", 1.5)
    r.observe("a.wait_s", 2.5)
    assert r.value("a.hits") == 5
    assert isinstance(r.value("a.hits"), int)
    assert r.value("a.util") == 0.9
    assert r.value("a.wait_s") == pytest.approx(4.0)
    assert r.count("a.wait_s") == 2
    assert r.value("missing") == 0
    assert "a.hits" in r and "missing" not in r


def test_kind_conflict_raises():
    r = MetricsRegistry()
    r.inc("x")
    with pytest.raises(TypeError):
        r.gauge("x", 1.0)
    with pytest.raises(ValueError):
        r.declare("y", "histogram")


def test_timer_context_manager_accumulates():
    r = MetricsRegistry()
    for _ in range(3):
        with r.timer("t.block_s"):
            sum(range(100))
    assert r.count("t.block_s") == 3
    assert r.value("t.block_s") > 0.0


def test_declare_is_zero_and_idempotent():
    r = MetricsRegistry()
    r.declare("e.ticks", COUNTER)
    r.declare("e.phase_s", TIMER)
    assert r.value("e.ticks") == 0
    assert r.count("e.phase_s") == 0
    r.inc("e.ticks")
    r.declare("e.ticks", COUNTER)  # re-declare never resets
    assert r.value("e.ticks") == 1


def test_merge_semantics_counters_add_gauges_overwrite():
    parent = MetricsRegistry()
    parent.inc("n.jobs", 2)
    parent.observe("n.wait_s", 1.0)
    parent.gauge("n.util", 0.4)

    worker = MetricsRegistry()
    worker.inc("n.jobs", 3)
    worker.observe("n.wait_s", 2.0)
    worker.observe("n.wait_s", 3.0)
    worker.gauge("n.util", 0.8)
    worker.inc("n.new", 1)

    parent.merge(worker)
    assert parent.value("n.jobs") == 5
    assert parent.value("n.wait_s") == pytest.approx(6.0)
    assert parent.count("n.wait_s") == 3  # timer counts add too
    assert parent.value("n.util") == 0.8  # gauge: incoming wins
    assert parent.value("n.new") == 1


def test_merge_accepts_dump_across_process_boundary():
    worker = MetricsRegistry()
    worker.inc("w.done", 7)
    worker.observe("w.run_s", 0.25)
    worker.gauge("w.load", 1.5)
    # What actually crosses a pool boundary is the pickled dump.
    dump = pickle.loads(pickle.dumps(worker.dump()))

    parent = MetricsRegistry()
    parent.inc("w.done", 1)
    parent.merge(dump)
    assert parent.value("w.done") == 8
    assert parent.count("w.run_s") == 1
    assert parent.value("w.load") == 1.5
    # Kinds survive the round trip.
    assert parent.dump()["w.done"]["kind"] == COUNTER
    assert parent.dump()["w.run_s"]["kind"] == TIMER
    assert parent.dump()["w.load"]["kind"] == GAUGE


def test_merge_returns_self_and_is_associative_for_counters():
    a = MetricsRegistry()
    a.inc("c", 1)
    b = MetricsRegistry()
    b.inc("c", 2)
    c = MetricsRegistry()
    c.inc("c", 4)
    left = MetricsRegistry().merge(a).merge(b).merge(c)
    right = MetricsRegistry().merge(MetricsRegistry().merge(b).merge(c))
    right.merge(a)
    assert left.value("c") == right.value("c") == 7


def test_snapshot_prefix_strip_and_types():
    r = MetricsRegistry()
    r.inc("engine.transitions", 10)
    r.observe("engine.transmission_s", 0.5)
    r.inc("store.hits")
    snap = r.snapshot(prefix="engine.", strip=True)
    assert set(snap) == {"transitions", "transmission_s"}
    assert isinstance(snap["transitions"], int)
    assert isinstance(snap["transmission_s"], float)
    assert set(r.snapshot()) == {"engine.transitions",
                                 "engine.transmission_s", "store.hits"}


def test_clear_by_namespace():
    r = MetricsRegistry()
    r.inc("a.x")
    r.inc("b.y")
    r.clear("a.")
    assert "a.x" not in r and "b.y" in r
    r.clear()
    assert len(r) == 0


def test_names_sorted_by_prefix():
    r = MetricsRegistry()
    for n in ("z.b", "z.a", "y.c"):
        r.inc(n)
    assert r.names() == ["y.c", "z.a", "z.b"]


def test_global_registry_is_process_wide():
    g1 = global_registry()
    g2 = global_registry()
    assert g1 is g2


def test_stopwatch_monotonic():
    w = Stopwatch()
    first = w.elapsed()
    second = w.elapsed()
    assert 0.0 <= first <= second


def _hammer(registry, n_threads, n_calls):
    """``n_threads`` threads each make ``n_calls`` of every update kind,
    with the interpreter switching threads as often as it can."""
    import sys
    import threading

    def work():
        for _ in range(n_calls):
            registry.inc("c")
            registry.observe("t", 1.0)
            registry.observe_n("n", 2.0, 2)
            registry.gauge("g", 1.0)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)


def test_concurrent_updates_sum_exactly():
    """Handler threads and the broker thread share one service registry:
    no read-modify-write may lose an update."""
    r = MetricsRegistry()
    n_threads, n_calls = 8, 5000
    _hammer(r, n_threads, n_calls)
    total = n_threads * n_calls
    assert r.value("c") == total
    assert r.value("t") == float(total) and r.count("t") == total
    assert r.value("n") == 2.0 * total and r.count("n") == 2 * total


def test_registry_pickles_without_its_lock():
    r = MetricsRegistry()
    r.inc("a", 3)
    r.observe("t", 0.5)
    back = pickle.loads(pickle.dumps(r))
    assert back.dump() == r.dump()
    back.inc("a")  # the restored copy has a working lock of its own
    assert (back.value("a"), r.value("a")) == (4, 3)
