"""Recovery-policy coverage: the three playbook responses (requeue on node
loss, restart on transfer interruption, queue at the DB cap) keep a
realistic night completing, at a measurable overhead.

The failures come from one ``FaultPlan`` and the budgets from one
``RetryPolicy``, consulted by the ``SlurmSimulator`` and ``GlobusLink`` a
night already runs."""

import pytest

from repro.cluster.globus import GlobusLink
from repro.cluster.machines import ClusterSpec
from repro.cluster.slurm import Job, SlurmSimulator
from repro.obs import MetricsRegistry
from repro.params import GB
from repro.resilience import FaultPlan, RetryPolicy, TransientError
from repro.scheduling.levels import pack_ffdt_dc, pack_nfdt_dc
from repro.scheduling.metrics import jobs_from_packing
from repro.scheduling.wmp import make_nightly_instance

pytestmark = pytest.mark.fast


def small_cluster(n_nodes=24):
    return ClusterSpec("test", n_nodes, 2, 14, 128 * 10**9, "a", "b", "c")


def packed_jobs(seed=5, packer=pack_ffdt_dc):
    instance = make_nightly_instance(
        cells_per_region=3, replicates=2, regions=("VA", "VT", "NC"),
        cluster=small_cluster(), machine_width=24, seed=seed)
    return jobs_from_packing(packer(instance))


def faulted_night(mttf_h, *, seed, jobs=None, caps=None,
                  policy="backfill", attempts=20):
    """Execute a packed night under ``node.fail``; return the schedule and
    the simulator's registry."""
    reg = MetricsRegistry()
    sim = SlurmSimulator(
        small_cluster(), db_caps=caps, metrics=reg,
        faults=FaultPlan.parse([f"node.fail:mttf={mttf_h}"], seed=seed),
        retry=RetryPolicy(max_attempts=attempts))
    out = sim.run(list(jobs if jobs is not None else packed_jobs()),
                  policy=policy)
    return out, reg


def overhead(out, reg):
    return reg.value("slurm.wasted_node_s") / out.busy_node_seconds


def link_with(spec, *, seed=0, attempts=10):
    return GlobusLink("rivanna", "bridges",
                      faults=FaultPlan.parse([spec], seed=seed),
                      retry=RetryPolicy(max_attempts=attempts))


# --- node-failure requeue ----------------------------------------------------


def test_requeue_policy_finishes_packed_night():
    jobs = packed_jobs()
    out, reg = faulted_night(0.5, seed=42, jobs=jobs)
    assert {r.job.job_id for r in out.records} == {j.job_id for j in jobs}
    assert reg.value("slurm.reruns") > 0
    assert reg.value("faults.node.fail") == reg.value("slurm.reruns")
    assert overhead(out, reg) > 0


def test_requeue_policy_is_deterministic():
    a, reg_a = faulted_night(0.5, seed=7)
    b, reg_b = faulted_night(0.5, seed=7)
    assert a.records == b.records
    assert reg_a.value("slurm.reruns") == reg_b.value("slurm.reruns")
    assert (reg_a.value("slurm.wasted_node_s")
            == reg_b.value("slurm.wasted_node_s"))


def test_requeue_draws_depend_on_the_fault_seed():
    outs = [faulted_night(0.5, seed=s) for s in range(4)]
    assert len({(o.makespan, r.value("slurm.reruns"))
                for o, r in outs}) > 1


def test_requeue_respects_db_caps_under_failures():
    jobs = packed_jobs()
    caps = {"VA": 2, "VT": 2, "NC": 2}
    out, _ = faulted_night(0.5, seed=11, jobs=jobs, caps=caps)
    assert len(out.records) == len(jobs)
    for code, peak in out.peak_region_concurrency.items():
        assert peak <= caps[code]
    out.validate_no_overlap_violation(24, caps)


@pytest.mark.parametrize("policy,packer", [("fifo", pack_ffdt_dc),
                                           ("levels", pack_nfdt_dc)])
def test_requeue_under_strict_order_policies(policy, packer):
    """fifo and levels requeue too; under levels the rerun holds its
    level's barrier, so no later level starts before it finishes."""
    jobs = packed_jobs(packer=packer)
    caps = {"VA": 3, "VT": 3, "NC": 3}
    out, reg = faulted_night(0.5, seed=3, jobs=jobs, caps=caps,
                             policy=policy)
    assert reg.value("slurm.reruns") > 0
    assert sorted(r.job.job_id for r in out.records) == \
        sorted(j.job_id for j in jobs)
    out.validate_no_overlap_violation(24, caps)
    if policy == "levels":
        for rec in out.records:
            done = [r.finish for r in out.records
                    if r.job.level < rec.job.level]
            assert rec.start >= max(done, default=0.0)


def test_failed_attempts_never_appear_as_records():
    out, _ = faulted_night(0.25, seed=3)
    ids = [r.job.job_id for r in out.records]
    assert len(ids) == len(set(ids)) == len(packed_jobs())


def test_requeue_budget_exhaustion_raises():
    with pytest.raises(TransientError, match="lost a node on 3 attempt"):
        faulted_night(0.001, seed=0, attempts=3)


# --- transfer checksum-restart ----------------------------------------------


def test_checksum_restart_extends_but_completes():
    link = link_with("transfer.fail:p=0.4", seed=21)
    base = link.duration_of(int(2 * GB))
    durations = [link.transfer(f"s{i}", "bridges", "rivanna",
                               int(2 * GB)).duration for i in range(20)]
    assert len(link.records) == 20  # every transfer eventually lands
    assert all(d >= base for d in durations)
    assert any(d > base for d in durations)  # some retries did fire
    assert link.metrics.value("faults.transfer.fail") > 0
    # An interrupted attempt wastes 10-90 % of a transfer, never more.
    retries = link.metrics.value("globus.retries")
    assert sum(durations) - 20 * base <= 0.9 * base * retries


def test_checksum_restart_gives_up_after_max_retries():
    link = link_with("transfer.fail", attempts=4)
    with pytest.raises(TransientError, match="failed 4 attempt"):
        link.transfer("doomed", "bridges", "rivanna", int(1 * GB))
    assert link.metrics.value("faults.transfer.fail") == 4
    # Endpoints are still validated under faults.
    with pytest.raises(ValueError, match="unknown endpoint"):
        link.transfer("doomed", "a", "b", int(1 * GB))


def test_checksum_restart_is_deterministic():
    def run(seed):
        link = link_with("transfer.fail:p=0.5", seed=seed)
        return [link.transfer(f"t{i}", "rivanna", "bridges",
                              int(GB)).duration for i in range(10)]
    assert run(9) == run(9)
    assert run(9) != run(10)


# --- database queue-and-retry ------------------------------------------------


def starts_at_cap(cap, runtimes):
    sim = SlurmSimulator(small_cluster(), db_caps={"VA": cap})
    out = sim.run([Job(f"j{i:02d}", "VA", 1, t)
                   for i, t in enumerate(runtimes)])
    return [r.start for r in sorted(out.records, key=lambda r: r.job.job_id)]


def test_db_queue_and_retry_serves_every_acquire():
    starts = starts_at_cap(4, [100.0] * 12)
    assert len(starts) == 12  # nothing was refused
    assert starts[:4] == [0.0] * 4  # under the cap: immediate
    assert starts[4:8] == [100.0] * 4  # queued one slot-duration
    assert starts[8:] == [200.0] * 4
    assert sum(starts) == 4 * 100.0 + 4 * 200.0


def test_db_queue_waits_clear_as_slots_free():
    assert starts_at_cap(2, [50.0] * 4) == [0.0, 0.0, 50.0, 50.0]


def test_db_queue_orders_by_earliest_release():
    assert starts_at_cap(2, [30.0, 90.0, 10.0])[2] == 30.0


# --- the policies together ---------------------------------------------------


def test_resilient_night_end_to_end():
    """A failure-injected night (node losses + flaky summary transfer +
    capped DB connections) still completes every job, at positive but
    bounded overhead."""
    jobs = packed_jobs(seed=17)
    caps = {"VA": 3, "VT": 3, "NC": 3}
    out, reg = faulted_night(1.0, seed=17, jobs=jobs, caps=caps)
    assert {r.job.job_id for r in out.records} == {j.job_id for j in jobs}
    assert 0 < overhead(out, reg) < 1.0
    out.validate_no_overlap_violation(24, caps)

    link = link_with("transfer.fail:p=0.3", seed=17)
    rec = link.transfer("summary-output", "bridges", "rivanna",
                        int(5 * GB))
    assert rec.duration >= link.duration_of(int(5 * GB))
    assert len(link.records) == 1
