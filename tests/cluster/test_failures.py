"""Failure injection on the modelled cluster: node loss on the Slurm
simulator, interrupted transfers on the Globus link, and queueing at a
region's database cap.

Node loss and transfer interruption are ``FaultPlan`` sites (``node.fail``,
``transfer.fail``) retried under a ``RetryPolicy``, the same model the live
runtime uses; the DB cap is the simulator's dispatch rule.
"""

import pytest

from repro.cluster.globus import GlobusLink
from repro.cluster.machines import ClusterSpec
from repro.cluster.slurm import Job, SlurmSimulator
from repro.obs import MetricsRegistry
from repro.params import GB
from repro.resilience import FaultPlan, FaultRule, RetryPolicy, TransientError


def tiny_cluster(n_nodes=16):
    return ClusterSpec("tiny", n_nodes, 2, 14, 128 * 10**9, "x", "y", "z")


def job_list(n=20, nodes=2, runtime=600.0):
    return [Job(f"j{i}", f"R{i % 4}", nodes, runtime) for i in range(n)]


def run_faulted(jobs, mttf_h, *, seed=0, attempts=50, **sim_kw):
    """Run ``jobs`` under ``node.fail:mttf=<mttf_h>``; return the schedule
    and the simulator's registry."""
    reg = MetricsRegistry()
    sim = SlurmSimulator(
        tiny_cluster(), metrics=reg,
        faults=FaultPlan.parse([f"node.fail:mttf={mttf_h}"], seed=seed),
        retry=RetryPolicy(max_attempts=attempts), **sim_kw)
    return sim.run(list(jobs)), reg


def overhead(out, reg):
    return reg.value("slurm.wasted_node_s") / out.busy_node_seconds


def flaky_link(spec, *, seed=0, attempts=30, **kw):
    return GlobusLink("rivanna", "bridges",
                      faults=FaultPlan.parse([spec], seed=seed),
                      retry=RetryPolicy(max_attempts=attempts), **kw)


# --- node loss ---------------------------------------------------------------


def test_no_failures_when_mttf_huge():
    out, reg = run_faulted(job_list(), 1e12)
    clean = SlurmSimulator(tiny_cluster()).run(job_list())
    assert reg.value("slurm.reruns") == 0
    assert reg.value("faults.node.fail") == 0
    assert out.records == clean.records


def test_all_jobs_complete_despite_failures():
    jobs = job_list()
    out, reg = run_faulted(jobs, 1.0)
    assert {r.job.job_id for r in out.records} == {j.job_id for j in jobs}
    assert len(out.records) == len(jobs)
    assert reg.value("slurm.reruns") > 0
    assert reg.value("slurm.wasted_node_s") > 0


def test_failures_extend_makespan():
    jobs = job_list()
    clean = SlurmSimulator(tiny_cluster()).run(list(jobs))
    faulty, reg = run_faulted(jobs, 0.5)
    assert faulty.makespan > clean.makespan
    assert overhead(faulty, reg) > 0


def test_overhead_grows_with_failure_rate():
    # One seed can invert the order at rates this close; eight cannot.
    jobs = job_list(30)
    means = []
    for mttf in (50.0, 2.0):
        runs = [run_faulted(jobs, mttf, seed=s) for s in range(8)]
        means.append(sum(overhead(o, r) for o, r in runs) / len(runs))
    assert means[1] > means[0] > 0


def test_max_attempts_caps_retries():
    """A job killed on its last allowed attempt fails the run, as every
    other retry budget in the stack does."""
    with pytest.raises(TransientError, match="lost a node on 2 attempt"):
        run_faulted(job_list(5), 0.01, attempts=2)


def test_mttf_validation():
    with pytest.raises(ValueError, match="mttf must be positive"):
        FaultRule.parse("node.fail:mttf=0")
    with pytest.raises(ValueError, match="requires mttf"):
        FaultRule.parse("node.fail")


# --- transfer interruption ---------------------------------------------------


def test_flaky_link_retries_and_succeeds():
    link = flaky_link("transfer.fail:p=0.6", bandwidth=1.0 * GB)
    durations = [link.transfer(f"data{i}", "rivanna", "bridges",
                               10 * GB).duration for i in range(10)]
    base = link.duration_of(10 * GB)
    assert link.metrics.value("globus.retries") > 0
    assert min(durations) == base and max(durations) > base
    assert len(link.records) == 10


def test_flaky_link_logs_interruptions():
    link = flaky_link("transfer.fail:p=0.9", attempts=50)
    link.transfer("data", "rivanna", "bridges", GB)
    fired = link.metrics.value("faults.transfer.fail")
    assert fired > 0
    assert link.metrics.value("globus.retries") == fired


def test_flaky_link_gives_up():
    link = flaky_link("transfer.fail", attempts=4)
    with pytest.raises(TransientError, match="failed 4 attempt"):
        link.transfer("data", "rivanna", "bridges", GB)
    assert not link.records


def test_flaky_link_succeeds_on_final_retry():
    """Three attempts allowed: fail, fail, succeed."""
    link = flaky_link("transfer.fail:times=2", attempts=3)
    rec = link.transfer("data", "rivanna", "bridges", GB)
    assert link.metrics.value("globus.retries") == 2
    assert len(link.records) == 1
    assert rec.duration > link.duration_of(GB)  # wasted partial attempts


def test_flaky_link_exhausts_exactly_after_initial_plus_retries():
    """One failure past the budget (3 attempts) gives up."""
    link = flaky_link("transfer.fail:times=3", attempts=3)
    with pytest.raises(TransientError, match="failed 3 attempt"):
        link.transfer("data", "rivanna", "bridges", GB)
    assert link.metrics.value("faults.transfer.fail") == 3
    assert not link.records


# --- queueing at the DB cap --------------------------------------------------


def capped(cap, runtimes):
    sim = SlurmSimulator(tiny_cluster(), db_caps={"A": cap})
    out = sim.run([Job(f"j{i}", "A", 1, t) for i, t in enumerate(runtimes)])
    return [r.start for r in sorted(out.records, key=lambda r: r.job.job_id)]


def test_queueing_db_no_wait_under_cap():
    assert capped(3, [10.0] * 3) == [0.0, 0.0, 0.0]


def test_queueing_db_queues_beyond_cap():
    # The third job waits for the first release.
    assert capped(2, [10.0, 20.0, 5.0]) == [0.0, 0.0, 10.0]


def test_queueing_db_slots_free_over_time():
    assert capped(1, [5.0, 5.0, 5.0]) == [0.0, 5.0, 10.0]


def test_queueing_db_validation():
    with pytest.raises(ValueError, match="DB cap"):
        SlurmSimulator(tiny_cluster(), db_caps={"A": 0})


def test_queueing_db_rejects_negative_hold():
    with pytest.raises(ValueError, match="negative runtime"):
        SlurmSimulator(tiny_cluster()).run([Job("j", "A", 1, -1.0)])
