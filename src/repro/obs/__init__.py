"""Unified observability: metrics registry, span tracer, trace reports.

The single telemetry API for the whole stack (the Figures 7-10 problem:
a 10-hour nightly window is only operable if you can see where it went).
Every component publishes into one dotted namespace:

==============  ===========================================================
namespace       published by
==============  ===========================================================
``engine.*``    :mod:`repro.epihiper.engine` — phase timers, work counters
``runner.*``    :mod:`repro.core.runner` — asset/simulation timing per spec
``store.*``     :mod:`repro.store.cas` — hits, misses, puts, evictions
``memo.*``      :mod:`repro.store.memo` — batch fan-out accounting
``globus.*``    :mod:`repro.cluster.globus` — bytes/direction, transfer time
``slurm.*``     :mod:`repro.cluster.slurm` — jobs, makespan, queue waits,
                reruns and wasted node-seconds after node loss
==============  ===========================================================

- :mod:`~repro.obs.registry` — counters/gauges/timers, merge semantics;
- :mod:`~repro.obs.spans` — hierarchical tracer + JSONL event stream;
- :mod:`~repro.obs.report` — ``repro trace summarize|export`` reports.

The package itself is dependency-free (stdlib only) so any module can
publish without import cycles; trace files reuse the torn-line-tolerant
JSONL discipline of :mod:`repro.store.ledger`.
"""

from .registry import (
    COUNTER,
    GAUGE,
    TIMER,
    Metric,
    MetricsRegistry,
    global_registry,
)
from .registry import Stopwatch
from .report import TraceSummary, export_json, summarize, summarize_events
from .spans import SpanRecord, Tracer, default_trace_path, read_trace

__all__ = [
    "COUNTER",
    "GAUGE",
    "Metric",
    "MetricsRegistry",
    "SpanRecord",
    "Stopwatch",
    "TIMER",
    "TraceSummary",
    "Tracer",
    "default_trace_path",
    "export_json",
    "global_registry",
    "read_trace",
    "summarize",
    "summarize_events",
]
