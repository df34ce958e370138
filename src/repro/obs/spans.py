"""Hierarchical span tracing with a crash-tolerant JSONL event stream.

A :class:`Tracer` records where a run's wall-clock went as a tree of named
spans — orchestrator → workflow → cell → instance → engine phase — each
with wall (``perf_counter``) and CPU (``process_time``) time.  Every span
boundary is also appended to a JSONL trace file through the same
append-and-flush discipline as the :mod:`repro.store.ledger` run journal,
so a night that crashes at hour nine still yields a readable partial trace
(the reader tolerates a torn final line and unfinished spans).

Two span flavours exist because the reproduction runs two kinds of time:

- :meth:`Tracer.span` measures *real* elapsed time around actual work;
- :meth:`Tracer.modelled_span` records a span whose start and duration
  come from a simulated clock (the Slurm schedule, the workflow
  timeline), letting the one trace carry both views of a night.

The tracer is deliberately free of knobs: if constructed without a path it
keeps spans in memory only, and instrumented code never branches on
whether tracing is on — which is what keeps instrumented and bare runs
bit-identical (the equivalence test in ``tests/obs`` pins this).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator


def default_trace_path() -> Path:
    """Where CLI commands write their trace unless told otherwise.

    ``REPRO_TRACE_PATH`` overrides; the fallback lives under the user
    cache so ``repro night … && repro trace summarize`` needs no flags.
    """
    env = os.environ.get("REPRO_TRACE_PATH")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "trace.jsonl"


@dataclass
class SpanRecord:
    """One (possibly still open) span.

    Attributes:
        span_id: unique id within the trace.
        parent_id: enclosing span's id (None for roots).
        name: dotted span name (``task:run-simulations``).
        depth: nesting depth (roots are 0).
        start_s: start offset from the tracer's epoch, seconds.
        wall_s: elapsed wall seconds (0 until finished).
        cpu_s: elapsed process-CPU seconds (0 until finished).
        attrs: free-form attributes attached at entry or during the span.
        modelled: True when times come from a simulated clock.
        finished: whether the span has ended.
    """

    span_id: int
    parent_id: int | None
    name: str
    depth: int
    start_s: float
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    modelled: bool = False
    finished: bool = False


class Tracer:
    """Records a span tree, optionally streaming events to a JSONL file."""

    def __init__(self, path: str | Path | None = None, *,
                 run_id: str | None = None, faults=None) -> None:
        """Args:
            path: JSONL trace file, truncated first — one trace file is
                one run; within the run every event is appended and
                flushed.  None keeps the trace in memory only.
            run_id: stamped on every event (ties a trace to a night).
            faults: optional :class:`~repro.resilience.faults.FaultPlan`
                forwarded to the trace's journal; ``ledger.torn`` rules
                tear trace lines exactly as they tear run-ledger lines
                (chaos-testing the reader's crash tolerance).
        """
        self.spans: list[SpanRecord] = []
        self._stack: list[SpanRecord] = []
        self._next_id = 0
        self._epoch = time.perf_counter()
        self._ledger = None
        if path is not None:
            # Lazy import: repro.store.cas publishes into obs.registry, so
            # obs must not require repro.store at module import time.
            from ..store.ledger import RunLedger

            path = Path(path)
            if path.exists():
                path.unlink()
            self._ledger = RunLedger(path, run_id=run_id, faults=faults)

    # -- real spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRecord]:
        """Measure a block as one span; nests under the current span."""
        rec = self._begin(name, attrs)
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            yield rec
        finally:
            rec.wall_s = time.perf_counter() - t0
            rec.cpu_s = time.process_time() - c0
            self._end(rec)

    def _begin(self, name: str, attrs: dict[str, Any]) -> SpanRecord:
        parent = self._stack[-1] if self._stack else None
        rec = SpanRecord(
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            depth=len(self._stack),
            start_s=time.perf_counter() - self._epoch,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(rec)
        self._write("span_start", span=rec.span_id, parent=rec.parent_id,
                    name=rec.name, depth=rec.depth, start_s=rec.start_s)
        return rec

    def _end(self, rec: SpanRecord) -> None:
        rec.finished = True
        if self._stack and self._stack[-1] is rec:
            self._stack.pop()
        self.spans.append(rec)
        self._write("span_end", span=rec.span_id, name=rec.name,
                    wall_s=rec.wall_s, cpu_s=rec.cpu_s, attrs=rec.attrs)

    # -- modelled spans and loose events --------------------------------------

    def modelled_span(self, name: str, *, start: float, wall_s: float,
                      **attrs: Any) -> SpanRecord:
        """Record a span timed by a simulated clock (schedule, timeline).

        The span nests under the currently open real span; ``start`` is in
        the simulated clock's own units and is not mixed with the tracer
        epoch.
        """
        parent = self._stack[-1] if self._stack else None
        rec = SpanRecord(
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            depth=len(self._stack),
            start_s=float(start),
            wall_s=float(wall_s),
            attrs=dict(attrs),
            modelled=True,
            finished=True,
        )
        self._next_id += 1
        self.spans.append(rec)
        self._write("span", span=rec.span_id, parent=rec.parent_id,
                    name=rec.name, depth=rec.depth, start_s=rec.start_s,
                    wall_s=rec.wall_s, modelled=True, attrs=rec.attrs)
        return rec

    def event(self, name: str, **fields: Any) -> None:
        """Append a free-form annotation event to the stream."""
        self._write("annotation", name=name, **fields)

    def metrics(self, registry, scope: str = "") -> None:
        """Embed a registry dump in the stream (merged by the reader)."""
        self._write("metrics", scope=scope, data=registry.dump())

    # -- plumbing --------------------------------------------------------------

    def _write(self, event: str, **fields: Any) -> None:
        if self._ledger is not None:
            self._ledger.append(event, **fields)

    @property
    def open_spans(self) -> list[SpanRecord]:
        """Spans entered but not yet exited (innermost last)."""
        return list(self._stack)

    def close(self) -> None:
        """Close the underlying trace file (writes reopen it)."""
        if self._ledger is not None:
            self._ledger.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_trace(path: str | Path) -> tuple[dict[str, Any], ...]:
    """Parse a trace file into its event records.

    Reuses the torn-line-tolerant reader from :mod:`repro.store.ledger`:
    a truncated final line (the process died mid-append) is skipped, a
    missing file reads as an empty trace.
    """
    from ..store.ledger import replay_ledger

    return replay_ledger(path).events
