"""The metrics registry: one namespace for every counter in the stack.

The paper's nightly production runs were steered entirely by telemetry —
per-phase runtimes, memory, utilization (Figures 7-10) — yet ad-hoc
instrumentation fragments as a system grows: a timing dict here, a stats
dataclass there, a transfer ledger somewhere else.  :class:`MetricsRegistry`
is the single publication point: every component registers its numbers
under a dotted name (``engine.transmission_s``, ``store.hits``,
``globus.bytes_out``, ``slurm.queue_wait_s``) and every consumer — the
trace report, the run ledger, the legacy dict views — reads the same data.

Three metric kinds cover the stack:

- **counter** — a monotonically increasing integer (`transitions`, `hits`);
- **gauge** — a last-write-wins float (`makespan_s`, `utilization`);
- **timer** — accumulated ``perf_counter`` seconds plus an observation
  count (`transmission_s`); :meth:`MetricsRegistry.timer` is the context
  manager that owns the clock, so components never touch
  ``time.perf_counter`` themselves.

Registries are cheap, thread-safe, picklable, and mergeable: every update
is one read-modify-write under the registry's lock (a service's handler
threads count admission hits beside its broker thread); pool workers
fill a fresh registry each, ship :meth:`dump` back with the result, and
the parent :meth:`merge`s them — counters and timers add, gauges take
the incoming value.  The module-level :func:`global_registry` aggregates
whatever the current process ran, so a CLI command can report on work
done anywhere in the stack without threading a registry through every
call.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping

COUNTER = "counter"
GAUGE = "gauge"
TIMER = "timer"

_KINDS = (COUNTER, GAUGE, TIMER)


@dataclass
class Metric:
    """One named metric: its kind, value, and (for timers) sample count."""

    kind: str
    value: int | float = 0
    count: int = 0


class MetricsRegistry:
    """A mutable collection of named metrics under dotted namespaces."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        return {"_metrics": self._metrics}

    def __setstate__(self, state: dict) -> None:
        self._metrics = state["_metrics"]
        self._lock = threading.Lock()

    # -- publication -----------------------------------------------------------

    def _declare(self, name: str, kind: str) -> Metric:
        """Fetch or create a metric (caller holds the lock)."""
        m = self._metrics.get(name)
        if m is None:
            if kind not in _KINDS:
                raise ValueError(f"unknown metric kind: {kind!r}")
            m = Metric(kind=kind, value=0 if kind == COUNTER else 0.0)
            self._metrics[name] = m
        elif m.kind != kind:
            raise TypeError(
                f"{name!r} is a {m.kind}, not a {kind}")
        return m

    def counter(self, name: str) -> Metric:
        """Declare (or fetch) a counter without incrementing it."""
        with self._lock:
            return self._declare(name, COUNTER)

    def declare(self, name: str, kind: str) -> Metric:
        """Declare (or fetch) a metric of any kind at its zero value."""
        with self._lock:
            return self._declare(name, kind)

    def inc(self, name: str, n: int = 1) -> int:
        """Add ``n`` to a counter; returns the new value."""
        with self._lock:
            m = self._declare(name, COUNTER)
            m.value = int(m.value) + int(n)
            return m.value

    def gauge(self, name: str, value: float) -> float:
        """Set a gauge (last write wins)."""
        with self._lock:
            m = self._declare(name, GAUGE)
            m.value = float(value)
            return m.value

    def observe(self, name: str, seconds: float) -> float:
        """Accumulate one timed observation; returns the running total."""
        with self._lock:
            m = self._declare(name, TIMER)
            m.value = float(m.value) + float(seconds)
            m.count += 1
            return m.value

    def observe_n(self, name: str, seconds: float, n: int) -> float:
        """Accumulate ``n`` observations totalling ``seconds`` in one call.

        For drivers that time shared work under one clock and apportion
        it afterwards (the batched engine times K lanes per phase and
        credits each lane ``total / K`` across its ticks at flush) —
        keeps per-observation counts honest without per-tick overhead.
        """
        with self._lock:
            m = self._declare(name, TIMER)
            m.value = float(m.value) + float(seconds)
            m.count += int(n)
            return m.value

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a block on the monotonic clock and :meth:`observe` it.

        This context manager is the stack's only sanctioned use of
        ``perf_counter`` for accumulation (the lint test in ``tests/obs``
        enforces that nothing outside ``repro.obs`` builds timing dicts by
        hand).
        """
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - t0)

    # -- consumption -----------------------------------------------------------

    def value(self, name: str, default: int | float = 0) -> int | float:
        """Current value of a metric (timers report total seconds)."""
        m = self._metrics.get(name)
        return default if m is None else m.value

    def count(self, name: str) -> int:
        """Observation count of a timer (0 for anything else or missing)."""
        m = self._metrics.get(name)
        return 0 if m is None else m.count

    def names(self, prefix: str = "") -> list[str]:
        """Sorted metric names, optionally restricted to a prefix."""
        with self._lock:
            return sorted(n for n in self._metrics if n.startswith(prefix))

    def snapshot(self, prefix: str = "",
                 strip: bool = False) -> dict[str, int | float]:
        """Flat name -> value view, optionally filtered and de-prefixed.

        Counters stay Python ints and timers/gauges floats, so legacy
        consumers that did arithmetic on a plain counters dict see the
        same types they always did.
        """
        with self._lock:
            return {(name[len(prefix):] if strip else name): m.value
                    for name, m in sorted(self._metrics.items())
                    if name.startswith(prefix)}

    def dump(self, prefix: str = "") -> dict[str, dict[str, int | float | str]]:
        """Kind-preserving serialisation (what crosses process boundaries)."""
        with self._lock:
            return {
                name: {"kind": m.kind, "value": m.value, "count": m.count}
                for name, m in sorted(self._metrics.items())
                if name.startswith(prefix)
            }

    # -- combination -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry | Mapping") -> "MetricsRegistry":
        """Fold another registry (or a :meth:`dump`) into this one.

        Counters and timers add (and timer counts add), gauges take the
        incoming value — the semantics that make per-worker registries
        sum correctly in the parent.  Returns self for chaining.
        """
        if isinstance(other, MetricsRegistry):
            items = other.dump().items()
        else:
            items = list(other.items())
        with self._lock:
            for name, rec in items:
                kind = rec["kind"]
                m = self._declare(name, kind)
                if kind == COUNTER:
                    m.value = int(m.value) + int(rec["value"])
                elif kind == TIMER:
                    m.value = float(m.value) + float(rec["value"])
                    m.count += int(rec.get("count", 0))
                else:  # gauge
                    m.value = float(rec["value"])
        return self

    def clear(self, prefix: str = "") -> None:
        """Drop metrics (all of them, or one namespace)."""
        with self._lock:
            for name in [n for n in self._metrics if n.startswith(prefix)]:
                del self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({self.snapshot()!r})"


class Stopwatch:
    """A started ``perf_counter`` clock for code that needs the elapsed
    value itself (ledger events, log lines) rather than an accumulated
    timer.  Lives here so ``repro.obs`` stays the stack's only reader of
    the monotonic clock.
    """

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction (monotonic)."""
        return time.perf_counter() - self._t0


class PhaseClock:
    """Per-phase seconds a hot loop accumulates in plain floats, flushed
    into a registry as timers by :meth:`flush` (:meth:`MetricsRegistry.
    observe_n`): no lock and no context manager per phase.

    :meth:`start` opens a lap; :meth:`lap` charges the time since the
    previous mark to one phase and opens the next.
    """

    __slots__ = ("names", "seconds", "_t")

    def __init__(self, names) -> None:
        self.names = tuple(names)
        self.seconds = [0.0] * len(self.names)
        self._t = 0.0

    def start(self) -> None:
        """Open a lap now."""
        self._t = time.perf_counter()

    def lap(self, phase: int) -> None:
        """Charge the time since the last mark to ``names[phase]``."""
        t = time.perf_counter()
        self.seconds[phase] += t - self._t
        self._t = t

    def flush(self, registry: MetricsRegistry, prefix: str, n: int) -> None:
        """Observe each phase's unflushed seconds as ``n`` observations of
        ``<prefix><name>``, then reset.  With ``n <= 0`` nothing is
        observed and the seconds keep accruing."""
        if n <= 0:
            return
        for name, seconds in zip(self.names, self.seconds):
            registry.observe_n(prefix + name, seconds, n)
        self.seconds = [0.0] * len(self.names)


#: Process-wide aggregation point: components that are not handed a
#: registry explicitly still publish here, so "what did this process do"
#: is always answerable.
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry (per-process; workers ship theirs home)."""
    return _GLOBAL
