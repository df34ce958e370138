"""End-to-end nights: quarantined specs and degraded windows.

Two acceptance paths: (1) a batch with a poisoned spec returns partial
results plus a quarantine report journaled to the ledger; (2) a night
whose projection blows its window sheds deterministically, journals the
shed set, and reports ``degraded``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.machines import AccessWindow
from repro.core.designs import Cell, ExperimentDesign
from repro.core.orchestrator import orchestrate_night
from repro.core.parallel import (
    InstanceSpec,
    run_instances,
    supervise_instances,
)
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan, RetryPolicy
from repro.store.ledger import RunLedger, replay_ledger

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)


def specs(n=3, days=8):
    return [
        InstanceSpec(region_code="VT", params={"TAU": 0.25, "SYMP": 0.65},
                     n_days=days, scale=1e-3, seed=100 + 17 * i,
                     label=f"VT-i{i}", asset_seed=0)
        for i in range(n)
    ]


def mini_design():
    return ExperimentDesign(
        name="mini",
        cells=(Cell(0, {"TAU": 0.2}), Cell(1, {"TAU": 0.3})),
        regions=("VT", "RI"),
        replicates=3,
    )


def test_quarantined_spec_yields_partial_results(tmp_path):
    """A spec that keeps failing is quarantined; the rest of the night
    completes with results bit-identical to a clean run."""
    plan = FaultPlan.parse(["worker.exception:match=i1"], seed=0)  # always
    ledger = RunLedger(tmp_path / "run.jsonl")
    reg = MetricsRegistry()
    # i1 alone has another horizon, so it is a group of its own: a batch
    # group is the failure domain and fails whole.
    night = [replace(s, n_days=9) if s.label == "VT-i1" else s
             for s in specs()]
    res = supervise_instances(night, parallel=False, retry=FAST_RETRY,
                              faults=plan, registry=reg, ledger=ledger)

    assert not res.ok
    assert [r is None for r in res.results] == [False, True, False]
    (q,) = res.quarantined
    assert q.key == "VT-i1" and q.kind == "transient" and q.attempts == 2
    assert "1 pool rebuilds" not in res.summary()

    # Partial results match the clean run bit for bit.
    clean = run_instances(specs(), parallel=False,
                          registry=MetricsRegistry())
    for i in (0, 2):
        assert np.array_equal(clean[i].confirmed, res.results[i].confirmed)
        assert clean[i].attack_rate == res.results[i].attack_rate

    # The give-up is journaled (beside the run's other events) and metered.
    replay = replay_ledger(ledger.path)
    assert replay.count("instance_completed") == 2
    (event,) = [e for e in replay.events if e["event"] == "instance_failed"]
    assert event["key"] == "VT-i1" and event["quarantined"] is True
    assert reg.value("retry.quarantined") == 1
    assert reg.value("faults.worker.exception") == 2


def test_degraded_night_sheds_journals_and_reports(tmp_path):
    ledger = RunLedger(tmp_path / "night.jsonl")
    report = orchestrate_night(
        mini_design(),
        window=AccessWindow(start_hour=22.0, duration_hours=0.05),
        degrade=True,
        ledger=ledger,
    )
    design_points = 4  # 2 cells x 2 regions
    assert report.degraded
    assert report.n_shed == design_points * 2  # tiers 2 and 1 shed
    assert len(report.shed_task_ids) == report.n_shed
    # The night still ran: one replicate per design point survived.
    assert len(report.schedule.records) == design_points
    assert "degraded: shed 8" in report.summary()
    assert report.metrics.value("night.shed_instances") == report.n_shed
    assert report.metrics.value("night.degraded") == 1.0

    replay = replay_ledger(ledger.path)
    shed_events = [e for e in replay.events if e["event"] == "work_shed"]
    assert {e["key"] for e in shed_events} == set(report.shed_task_ids)
    (started,) = [e for e in replay.events if e["event"] == "run_started"]
    assert started["shed"] == report.n_shed


def test_degrade_flag_is_inert_when_night_fits():
    report = orchestrate_night(mini_design(), degrade=True)
    assert not report.degraded and report.n_shed == 0
    assert report.metrics.value("night.degraded") == 0.0
    assert report.fits_window


def test_degraded_night_is_deterministic(tmp_path):
    window = AccessWindow(start_hour=22.0, duration_hours=0.05)
    a = orchestrate_night(mini_design(), window=window, degrade=True)
    b = orchestrate_night(mini_design(), window=window, degrade=True)
    assert a.shed_task_ids == b.shed_task_ids
    assert a.schedule.makespan == b.schedule.makespan


def test_min_replicates_floor_threads_through(tmp_path):
    report = orchestrate_night(
        mini_design(),
        window=AccessWindow(start_hour=22.0, duration_hours=0.05),
        degrade=True,
        min_replicates=2,
    )
    assert report.n_shed == 4  # only the top tier is sheddable
    assert len(report.schedule.records) == 8


def test_night_transfer_faults_are_retried_transparently(tmp_path):
    plan = FaultPlan.parse(["transfer.fail:times=1"], seed=0)
    report = orchestrate_night(mini_design(), faults=plan,
                               retry=RetryPolicy(max_attempts=3))
    clean = orchestrate_night(mini_design())
    # Retries are invisible in the ledger of completed transfers...
    assert len(report.link.records) == len(clean.link.records)
    assert report.link.bytes_moved() == clean.link.bytes_moved()
    # ...and visible in the fault accounting.
    assert report.metrics.value("faults.transfer.fail") >= 1


def test_night_runs_its_workflow_once_so_faults_fire_once_per_transfer():
    # A night has two transfers (configurations out, summaries back);
    # ``times=1`` fails the first attempt of each.  The schedule is
    # computed before the graph runs, not by running the graph twice, so
    # every injected failure is one the link actually retried.
    plan = FaultPlan.parse(["transfer.fail:times=1"], seed=0)
    report = orchestrate_night(mini_design(), faults=plan,
                               retry=RetryPolicy(max_attempts=3))
    assert len(report.link.records) == 2
    assert report.metrics.value("faults.transfer.fail") == 2
    assert report.metrics.value("globus.retries") == 2


def test_night_torn_ledger_still_replays(tmp_path):
    plan = FaultPlan.parse(["ledger.torn:times=2,match=instance_completed"],
                           seed=0)
    ledger = RunLedger(tmp_path / "torn.jsonl", faults=plan)
    report = orchestrate_night(mini_design(), ledger=ledger, faults=plan)
    assert ledger.torn_events == 2
    replay = replay_ledger(ledger.path)
    # Two instance_completed records were lost to torn lines; the file
    # still parses and the rest of the night's journal survives.
    n_completed = len(report.schedule.records)
    assert replay.count("instance_completed") == n_completed - 2
    assert replay.count("run_completed") == 1
