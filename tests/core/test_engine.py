"""Workflow DAG engine tests."""

import pytest

from repro.core.engine import WorkflowEngine, WorkflowError
from repro.core.tasks import HOME, REMOTE, DataArtifact, WorkflowTask


def noop(ctx):
    return None


def test_topological_order():
    tasks = [
        WorkflowTask("c", HOME, noop, deps=("b",)),
        WorkflowTask("a", HOME, noop),
        WorkflowTask("b", HOME, noop, deps=("a",)),
    ]
    engine = WorkflowEngine(tasks)
    assert engine.order == ["a", "b", "c"]


def test_cycle_detected():
    tasks = [
        WorkflowTask("a", HOME, noop, deps=("b",)),
        WorkflowTask("b", HOME, noop, deps=("a",)),
    ]
    with pytest.raises(WorkflowError, match="cycle"):
        WorkflowEngine(tasks)


def test_unknown_dependency():
    with pytest.raises(WorkflowError, match="unknown"):
        WorkflowEngine([WorkflowTask("a", HOME, noop, deps=("ghost",))])


def test_duplicate_names():
    with pytest.raises(WorkflowError, match="duplicate"):
        WorkflowEngine([WorkflowTask("a", HOME, noop),
                        WorkflowTask("a", HOME, noop)])


def test_artifacts_flow():
    def produce(ctx):
        return {"data": DataArtifact("data", HOME, 100.0, payload=[1, 2])}

    def consume(ctx):
        assert ctx["artifacts"]["data"].payload == [1, 2]
        return None

    run = WorkflowEngine([
        WorkflowTask("p", HOME, produce),
        WorkflowTask("c", HOME, consume, deps=("p",)),
    ]).execute()
    assert "data" in run.artifacts


def test_site_violation_rejected():
    def bad(ctx):
        return {"data": DataArtifact("data", REMOTE, 1.0)}

    with pytest.raises(WorkflowError, match="without a transfer"):
        WorkflowEngine([WorkflowTask("p", HOME, bad)]).execute()


def test_transfer_prefix_allows_cross_site():
    def xfer(ctx):
        return {"xfer:data": DataArtifact("data", REMOTE, 1.0)}

    run = WorkflowEngine([WorkflowTask("t", HOME, xfer)]).execute()
    assert run.artifacts["data"].site == REMOTE


def test_timeline_serialises_per_site():
    tasks = [
        WorkflowTask("a", HOME, noop, est_duration=10.0),
        WorkflowTask("b", HOME, noop, est_duration=5.0),
        WorkflowTask("r", REMOTE, noop, est_duration=3.0),
    ]
    run = WorkflowEngine(tasks).execute()
    by_name = {t.task_name: t for t in run.runs}
    a, b, r = (by_name[n] for n in ("a", "b", "r"))
    assert a.started == 0.0 and a.finished == 10.0
    assert b.started == 10.0  # same site serialises
    assert r.started == 0.0  # different site runs in parallel
    assert run.makespan == 15.0


def test_deps_gate_start_across_sites():
    tasks = [
        WorkflowTask("home", HOME, noop, est_duration=7.0),
        WorkflowTask("remote", REMOTE, noop, deps=("home",),
                     est_duration=2.0),
    ]
    run = WorkflowEngine(tasks).execute()
    remote = next(t for t in run.runs if t.task_name == "remote")
    assert remote.started == 7.0
    assert run.makespan == 9.0


def test_invalid_site():
    with pytest.raises(ValueError, match="site"):
        WorkflowTask("a", "moon", noop)
    with pytest.raises(ValueError, match="site"):
        DataArtifact("x", "moon", 1.0)


def test_artifact_helpers():
    art = DataArtifact("x", HOME, 2e9)
    moved = art.at(REMOTE)
    assert moved.site == REMOTE and moved.size_bytes == 2e9
    assert "2.0GB" in str(art)
    with pytest.raises(ValueError):
        DataArtifact("x", HOME, -1.0)
