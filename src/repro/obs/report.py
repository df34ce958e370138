"""Per-night trace reports: where did the window go?

Turns a trace (a JSONL file, a tuple of parsed events, or a live
:class:`~repro.obs.spans.Tracer`) into the report the paper's operators
read every morning: the engine phase breakdown mirroring Figure 7, the
modelled workflow timeline, the top-N slowest spans, store hit rates, and
transfer volumes.  ``repro trace summarize`` renders the text form;
``repro trace export`` emits the JSON form for dashboards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .registry import MetricsRegistry
from .spans import SpanRecord, Tracer, read_trace

#: The engine phases of the Figure 7 runtime breakdown, in report order.
ENGINE_PHASES: tuple[str, ...] = (
    "interventions", "transmission", "progression")


@dataclass
class TraceSummary:
    """The digested view of one trace."""

    n_events: int
    spans: list[SpanRecord] = field(default_factory=list)
    unfinished: list[dict[str, Any]] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    # -- derived tables --------------------------------------------------------

    def engine_phase_table(self) -> list[tuple[str, float, float]]:
        """``(phase, total_seconds, share)`` rows from ``engine.*_s``.

        Totals come from the merged metrics stream, i.e. the same timer
        observations the legacy ``*_s`` counters report — the two views
        agree by construction.
        """
        totals = {p: float(self.metrics.value(f"engine.{p}_s"))
                  for p in ENGINE_PHASES
                  if f"engine.{p}_s" in self.metrics}
        grand = sum(totals.values())
        return [(p, t, t / grand if grand else 0.0)
                for p, t in sorted(totals.items(),
                                   key=lambda kv: -kv[1])]

    def modelled_tasks(self) -> list[tuple[SpanRecord, float, float]]:
        """``(span, start_s, duration_s)`` rows on the modelled timeline.

        Workflow-task spans are *real* spans (they wrap the action) that
        carry the modelled timeline as ``modelled_start_s``/``modelled_s``
        attributes; purely modelled task spans fall back to their own
        start/wall fields.
        """
        rows = []
        for s in self.spans:
            if not s.name.startswith("task:"):
                continue
            start = float(s.attrs.get("modelled_start_s", s.start_s))
            dur = float(s.attrs.get("modelled_s", s.wall_s))
            rows.append((s, start, dur))
        return rows

    def instances(self) -> list[SpanRecord]:
        """Per-instance spans (one per <cell, region> job of the night)."""
        return [s for s in self.spans if s.name.startswith("instance:")]

    def top_spans(self, n: int = 10) -> list[SpanRecord]:
        """The ``n`` slowest finished real spans by wall time."""
        real = [s for s in self.spans if not s.modelled]
        return sorted(real, key=lambda s: -s.wall_s)[:n]

    # -- renderings ------------------------------------------------------------

    def render(self, top: int = 10) -> str:
        """The ``repro trace summarize`` text report."""
        from ..params import fmt_bytes

        m = self.metrics
        lines = [f"trace: {self.n_events} events, "
                 f"{len(self.spans)} spans"
                 + (f", {len(self.unfinished)} unfinished "
                    f"(partial trace)" if self.unfinished else "")]

        phases = self.engine_phase_table()
        if phases:
            lines.append("")
            lines.append("engine phase breakdown (Fig. 7):")
            lines.append(f"  {'phase':<15} {'total_s':>10} {'share':>7} "
                         f"{'ticks':>7}")
            for name, total, share in phases:
                ticks = m.count(f"engine.{name}_s")
                lines.append(f"  {name:<15} {total:>10.4f} {share:>6.1%} "
                             f"{ticks:>7d}")

        tasks = self.modelled_tasks()
        if tasks:
            lines.append("")
            lines.append("workflow tasks (modelled timeline):")
            lines.append(f"  {'task':<28} {'start_h':>8} {'dur_h':>8}")
            for s, start, dur in sorted(tasks, key=lambda row: row[1]):
                lines.append(
                    f"  {s.name.removeprefix('task:'):<28} "
                    f"{start / 3600:>8.2f} {dur / 3600:>8.2f}")

        inst = self.instances()
        if inst:
            total = sum(s.wall_s for s in inst)
            lines.append("")
            lines.append(f"instances: {len(inst)} "
                         f"(modelled work {total / 3600:.1f} job-hours)")

        spans = self.top_spans(top)
        if spans:
            lines.append("")
            lines.append(f"top {len(spans)} spans by wall time:")
            lines.append(f"  {'span':<36} {'wall_s':>10} {'cpu_s':>10}")
            for s in spans:
                indent = "  " * s.depth
                name = (indent + s.name)[:36]
                lines.append(f"  {name:<36} {s.wall_s:>10.4f} "
                             f"{s.cpu_s:>10.4f}")

        if "store.hits" in m or "store.misses" in m:
            hits = int(m.value("store.hits"))
            misses = int(m.value("store.misses"))
            lookups = hits + misses
            rate = hits / lookups if lookups else 1.0
            lines.append("")
            lines.append(f"store: {hits} hits, {misses} misses "
                         f"({rate:.0%} served), "
                         f"{int(m.value('store.puts'))} puts, "
                         f"{int(m.value('store.evictions'))} evictions")

        if "globus.transfers" in m:
            lines.append(
                f"transfers: {fmt_bytes(m.value('globus.bytes_out'))} out, "
                f"{fmt_bytes(m.value('globus.bytes_in'))} in "
                f"({int(m.value('globus.transfers'))} transfers, "
                f"{m.value('globus.transfer_s') / 3600:.2f}h modelled)")

        if "slurm.makespan_s" in m:
            lines.append(
                f"slurm: {int(m.value('slurm.jobs'))} jobs, makespan "
                f"{m.value('slurm.makespan_s') / 3600:.2f}h, "
                f"utilization {m.value('slurm.utilization'):.3f}, "
                f"mean queue wait "
                f"{m.value('slurm.queue_wait_s') / max(1, m.count('slurm.queue_wait_s')) / 3600:.2f}h")
        if "slurm.wasted_node_s" in m:
            lines.append(
                f"node loss: {int(m.value('faults.node.fail'))} failures, "
                f"{int(m.value('slurm.reruns'))} reruns, "
                f"{m.value('slurm.wasted_node_s') / 3600:.1f} node-h wasted")

        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """The ``repro trace export`` document."""
        return {
            "n_events": self.n_events,
            "metrics": self.metrics.snapshot(),
            "engine_phases": [
                {"phase": p, "total_s": t, "share": s}
                for p, t, s in self.engine_phase_table()],
            "spans": [
                {"span": s.span_id, "parent": s.parent_id, "name": s.name,
                 "depth": s.depth, "start_s": s.start_s, "wall_s": s.wall_s,
                 "cpu_s": s.cpu_s, "modelled": s.modelled,
                 "attrs": s.attrs}
                for s in self.spans],
            "unfinished": list(self.unfinished),
        }


def _span_from_event(rec: dict[str, Any], finished: bool) -> SpanRecord:
    return SpanRecord(
        span_id=int(rec.get("span", -1)),
        parent_id=rec.get("parent"),
        name=str(rec.get("name", "")),
        depth=int(rec.get("depth", 0)),
        start_s=float(rec.get("start_s", 0.0)),
        wall_s=float(rec.get("wall_s", 0.0)),
        cpu_s=float(rec.get("cpu_s", 0.0)),
        attrs=dict(rec.get("attrs") or {}),
        modelled=bool(rec.get("modelled", False)),
        finished=finished,
    )


def summarize_events(events: tuple[dict[str, Any], ...]) -> TraceSummary:
    """Digest parsed trace events into a :class:`TraceSummary`.

    ``span_start`` records without a matching ``span_end`` — the crashed
    part of a partial trace — surface under ``unfinished`` instead of
    being dropped.
    """
    summary = TraceSummary(n_events=len(events))
    started: dict[int, dict[str, Any]] = {}
    for rec in events:
        kind = rec.get("event")
        if kind == "span_start":
            started[int(rec["span"])] = rec
        elif kind == "span_end":
            start = started.pop(int(rec["span"]), {})
            merged = {**start, **rec}
            summary.spans.append(_span_from_event(merged, finished=True))
        elif kind == "span":  # modelled: complete in one record
            summary.spans.append(_span_from_event(rec, finished=True))
        elif kind == "metrics":
            summary.metrics.merge(rec.get("data") or {})
    summary.unfinished = [
        {"span": rec["span"], "name": rec.get("name", ""),
         "depth": rec.get("depth", 0)}
        for rec in started.values()]
    return summary


def summarize(source: "str | Path | Tracer | tuple") -> TraceSummary:
    """Summarize a trace file, parsed events, or a live tracer."""
    if isinstance(source, Tracer):
        summary = TraceSummary(n_events=0)
        summary.spans = list(source.spans)
        summary.unfinished = [
            {"span": s.span_id, "name": s.name, "depth": s.depth}
            for s in source.open_spans]
        return summary
    if isinstance(source, (str, Path)):
        return summarize_events(read_trace(source))
    return summarize_events(tuple(source))


def export_json(source: "str | Path | Tracer | tuple") -> str:
    """The JSON export body (stable key order for diffable dashboards)."""
    return json.dumps(summarize(source).to_json(), indent=2, sort_keys=True)
