"""Slurm-simulator tests: capacity, DB caps, policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machines import ClusterSpec
from repro.cluster.slurm import Job, SlurmSimulator
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan, RetryPolicy


def tiny_cluster(n_nodes=10):
    return ClusterSpec("tiny", n_nodes, 2, 14, 128 * 10**9, "x", "y", "z")


def jobs_of(specs):
    """specs: list of (region, nodes, runtime, level)."""
    return [Job(f"j{i}", r, n, t, lvl)
            for i, (r, n, t, lvl) in enumerate(specs)]


def test_sequential_when_wide():
    sim = SlurmSimulator(tiny_cluster(4))
    jobs = jobs_of([("A", 4, 10.0, 0), ("A", 4, 10.0, 0)])
    out = sim.run(jobs, policy="fifo")
    assert out.makespan == 20.0
    assert out.utilization == pytest.approx(1.0)


def test_parallel_when_fits():
    sim = SlurmSimulator(tiny_cluster(8))
    jobs = jobs_of([("A", 4, 10.0, 0), ("B", 4, 10.0, 0)])
    out = sim.run(jobs, policy="fifo")
    assert out.makespan == 10.0


def test_db_cap_serialises_region():
    sim = SlurmSimulator(tiny_cluster(10), db_caps={"A": 1})
    jobs = jobs_of([("A", 2, 10.0, 0), ("A", 2, 10.0, 0)])
    out = sim.run(jobs, policy="backfill")
    assert out.makespan == 20.0
    assert out.peak_region_concurrency["A"] == 1


def test_backfill_skips_blocked_head():
    """FIFO blocks behind a too-wide head job; backfill runs B first."""
    cluster = tiny_cluster(6)
    jobs = jobs_of([
        ("A", 6, 10.0, 0),   # starts immediately, fills machine
        ("B", 6, 10.0, 0),   # must wait either way
        ("C", 6, 5.0, 0),
    ])
    fifo = SlurmSimulator(cluster).run(list(jobs), policy="fifo")
    bf = SlurmSimulator(cluster).run(list(jobs), policy="backfill")
    assert bf.makespan <= fifo.makespan


def test_backfill_fills_gaps():
    cluster = tiny_cluster(6)
    jobs = jobs_of([
        ("A", 4, 10.0, 0),
        ("B", 4, 10.0, 0),  # cannot start with A (8 > 6)
        ("C", 2, 10.0, 0),  # backfills alongside A
    ])
    out = SlurmSimulator(cluster).run(jobs, policy="backfill")
    rec = {r.job.job_id: r for r in out.records}
    assert rec["j2"].start == 0.0  # C backfilled
    assert rec["j1"].start == 10.0


def test_levels_policy_barriers():
    cluster = tiny_cluster(10)
    jobs = jobs_of([
        ("A", 2, 10.0, 0), ("B", 2, 1.0, 0),
        ("C", 2, 5.0, 1),
    ])
    out = SlurmSimulator(cluster).run(jobs, policy="levels")
    rec = {r.job.job_id: r for r in out.records}
    # Level 1 job waits for the whole of level 0 (the slow A).
    assert rec["j2"].start == 10.0


def test_capacity_never_exceeded_validator():
    cluster = tiny_cluster(8)
    jobs = jobs_of([("A", 3, 7.0, 0), ("B", 3, 3.0, 0), ("C", 3, 5.0, 0),
                    ("D", 5, 2.0, 0)])
    out = SlurmSimulator(cluster).run(jobs, policy="backfill")
    out.validate_no_overlap_violation(8, {})


def test_job_wider_than_machine_rejected():
    sim = SlurmSimulator(tiny_cluster(4))
    with pytest.raises(ValueError, match="nodes"):
        sim.run([Job("j", "A", 5, 1.0)])


def test_reserved_nodes_reduce_capacity():
    sim = SlurmSimulator(tiny_cluster(10), reserved_nodes=6)
    jobs = jobs_of([("A", 4, 10.0, 0), ("B", 4, 10.0, 0)])
    out = sim.run(jobs, policy="fifo")
    assert out.makespan == 20.0  # only 4 nodes schedulable
    assert out.n_nodes_available == 4


def test_reservation_validation():
    with pytest.raises(ValueError):
        SlurmSimulator(tiny_cluster(4), reserved_nodes=4)


def test_invalid_policy():
    sim = SlurmSimulator(tiny_cluster(4))
    with pytest.raises(ValueError, match="policy"):
        sim.run([Job("j", "A", 1, 1.0)], policy="magic")


def test_empty_job_list():
    out = SlurmSimulator(tiny_cluster(4)).run([], policy="backfill")
    assert out.makespan == 0.0
    assert out.utilization == 1.0


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_property_schedule_always_valid(data):
    """Random workloads never violate capacity or DB caps, run every job
    exactly once, and keep utilization in (0, 1] — also under injected
    node loss; a plan without a ``node.fail`` rule schedules exactly as
    no plan does."""
    n_nodes = data.draw(st.integers(4, 20))
    caps = {"A": data.draw(st.integers(1, 4)),
            "B": data.draw(st.integers(1, 4))}
    n_jobs = data.draw(st.integers(1, 25))
    jobs = []
    for i in range(n_jobs):
        region = data.draw(st.sampled_from(["A", "B"]))
        width = data.draw(st.integers(1, n_nodes))
        runtime = data.draw(st.floats(0.5, 20.0))
        jobs.append(Job(f"j{i}", region, width, runtime, 0))
    policy = data.draw(st.sampled_from(["fifo", "backfill"]))
    # Per-node MTTF in hours: a 20-node, 20 s job dies on ~9 in 10
    # attempts at 0.05 h, so the generous budget below always completes.
    mttf = data.draw(st.sampled_from([None, 0.05, 0.5, 5.0]))
    rules = [f"node.fail:mttf={mttf}"] if mttf else ["transfer.fail"]
    faults = FaultPlan.parse(rules, seed=data.draw(st.integers(0, 99)))
    reg = MetricsRegistry()
    out = SlurmSimulator(tiny_cluster(n_nodes), db_caps=caps, metrics=reg,
                         faults=faults,
                         retry=RetryPolicy(max_attempts=1000)).run(
        jobs, policy=policy)
    assert len(out.records) == n_jobs
    assert len({r.job.job_id for r in out.records}) == n_jobs
    out.validate_no_overlap_violation(n_nodes, caps)
    assert 0.0 < out.utilization <= 1.0 + 1e-9
    assert reg.value("slurm.reruns") == reg.value("faults.node.fail")
    if mttf is None:
        clean = SlurmSimulator(tiny_cluster(n_nodes), db_caps=caps).run(
            jobs, policy=policy)
        assert out.records == clean.records
        assert "slurm.wasted_node_s" not in reg
