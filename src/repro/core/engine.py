"""Workflow DAG execution engine.

Executes :class:`~repro.core.tasks.WorkflowTask` graphs in dependency order,
actually running each task's Python action (the scaled-down computation)
while accumulating a *modelled* timeline from the tasks' estimated durations
— the same duality the reproduction uses everywhere: real code paths, paper-
scale accounting.

Site semantics: tasks on the same site serialise on that site's clock;
cross-site data movement must be an explicit transfer task (the engine
verifies that a task only consumes artifacts resident on its own site,
which is the paper's core operational constraint).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tasks import DataArtifact, TaskRun, WorkflowTask


class WorkflowError(RuntimeError):
    """Raised on dependency cycles or site violations."""


@dataclass
class WorkflowRun:
    """Result of executing one workflow graph.

    Attributes:
        runs: per-task provenance, in execution order.
        artifacts: final artifact store (name -> artifact).
        context: the shared context after execution.
        site_clocks: modelled busy-time per site.
    """

    runs: list[TaskRun] = field(default_factory=list)
    artifacts: dict[str, DataArtifact] = field(default_factory=dict)
    context: dict = field(default_factory=dict)
    site_clocks: dict[str, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Modelled completion time of the last task."""
        return max((r.finished for r in self.runs), default=0.0)


class WorkflowEngine:
    """Topologically executes a task graph."""

    def __init__(self, tasks: list[WorkflowTask]) -> None:
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise WorkflowError("duplicate task names")
        self.tasks = {t.name: t for t in tasks}
        for t in tasks:
            for dep in t.deps:
                if dep not in self.tasks:
                    raise WorkflowError(f"{t.name} depends on unknown {dep}")
        self.order = self._topo_order()

    def _topo_order(self) -> list[str]:
        indeg = {n: len(t.deps) for n, t in self.tasks.items()}
        out: dict[str, list[str]] = {n: [] for n in self.tasks}
        for t in self.tasks.values():
            for dep in t.deps:
                out[dep].append(t.name)
        ready = sorted(n for n, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            n = ready.pop(0)
            order.append(n)
            for m in sorted(out[n]):
                indeg[m] -= 1
                if indeg[m] == 0:
                    ready.append(m)
            ready.sort()
        if len(order) != len(self.tasks):
            raise WorkflowError("dependency cycle detected")
        return order

    def execute(self, context: dict | None = None, *,
                tracer=None) -> WorkflowRun:
        """Run all tasks; returns the provenance and artifact store.

        The context dict is passed to every action; actions read inputs
        from ``context["artifacts"]`` and may stash arbitrary state.

        With a :class:`~repro.obs.spans.Tracer`, each task's action runs
        inside a ``task:<name>`` span carrying the modelled timeline
        (``modelled_start_s`` / ``modelled_s``) as attributes, so spans
        the action emits (per-instance records, say) nest under it.
        """
        run = WorkflowRun(context=dict(context or {}))
        run.context["artifacts"] = run.artifacts
        finish_times: dict[str, float] = {}
        for name in self.order:
            task = self.tasks[name]
            dep_ready = max((finish_times[d] for d in task.deps), default=0.0)
            site_free = run.site_clocks.get(task.site, 0.0)
            start = max(dep_ready, site_free)
            if tracer is not None:
                with tracer.span(f"task:{name}", site=task.site,
                                 modelled_start_s=start,
                                 modelled_s=task.est_duration):
                    produced = task.action(run.context) or {}
            else:
                produced = task.action(run.context) or {}
            for key, artifact in produced.items():
                if not isinstance(artifact, DataArtifact):
                    raise WorkflowError(
                        f"{name} produced non-artifact under {key!r}")
                if artifact.site != task.site and not key.startswith("xfer:"):
                    raise WorkflowError(
                        f"{name} on {task.site} produced {artifact} on "
                        f"{artifact.site} without a transfer")
                run.artifacts[key.removeprefix("xfer:")] = artifact
            finished = start + task.est_duration
            finish_times[name] = finished
            run.site_clocks[task.site] = finished
            run.runs.append(TaskRun(
                task_name=name, site=task.site,
                started=start, finished=finished,
                produced=tuple(produced),
            ))
        return run
