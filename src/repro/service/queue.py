"""Admission-controlled scenario queue: priority, aging, coalescing.

The front door of the always-on service plane.  Three disciplines, each
borrowed from a system that ran epidemic workflows under interactive
demand:

- **Priority with deterministic aging** — entries are claimed in order of
  *effective* priority ``priority + (now_seq - seq) // aging_every``,
  where ``seq`` numbers admissions.  Every ``aging_every`` admissions that
  pass over a waiting entry raise its effective priority by one, so a
  flood of urgent requests can delay background work but never starve it.
  Aging is keyed to the admission counter, not the wall clock, so queue
  behavior is reproducible in tests.
- **Request coalescing** — requests are keyed by their canonical
  :func:`repro.store.keys.instance_key`; a request whose key matches an
  entry already queued or running joins that entry instead of adding
  load, and every joined request receives the one computed (bit-identical)
  payload.  A coalescing join with a higher priority re-prioritizes the
  queued entry — the OSPREY asynchronous re-prioritization pattern: later
  urgent work preempts *queued* (never running) lower-priority work.
- **Backpressure** — the queue is bounded by distinct queued entries;
  when full, new keys are rejected with a deterministic ``retry_after_s``
  hint instead of being accepted into an unbounded backlog.  Coalescing
  joins are always admitted (they add no load).

Every transition is published to the service metrics namespace:
``service.admitted`` / ``service.coalesced`` / ``service.rejected`` /
``service.reprioritized`` / ``service.completed`` / ``service.failed`` /
``service.cancelled`` counters, a ``service.queue_depth`` gauge, and
``service.wait_s`` / ``service.request_s`` timers.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..obs.registry import MetricsRegistry, Stopwatch
from ..store.keys import instance_key

#: Request lifecycle states.  ``REJECTED`` never enters the queue; the
#: other four are the states a tracked request moves through.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States from which a request will not move again.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


@dataclass(frozen=True, slots=True)
class Admission:
    """The queue's answer to one submission.

    Attributes:
        admitted: whether the request is now tracked (queued or joined).
        status: ``"queued"``, ``"coalesced"``, or ``"rejected"``.
        request_id: the tracking id (None when rejected).
        key: the canonical cache key of the scenario.
        depth: queued-entry count after the decision.
        retry_after_s: backpressure hint (rejections only).
        reason: why a rejection happened (``"full"`` or ``"draining"``).
    """

    admitted: bool
    status: str
    request_id: str | None
    key: str
    depth: int
    retry_after_s: float | None = None
    reason: str | None = None


@dataclass
class RequestRecord:
    """Tracked lifecycle of one submitted request."""

    request_id: str
    key: str
    priority: int
    seq: int
    state: str = QUEUED
    clock: Stopwatch = field(default_factory=Stopwatch)
    wait_s: float | None = None  #: queue wait (submit -> claim)
    total_s: float | None = None  #: submit -> terminal state
    coalesced: bool = False  #: joined an already-in-flight entry
    result: dict[str, Any] | None = None  #: payload arrays when DONE
    error: str | None = None  #: rendered failure when FAILED/CANCELLED
    kind: str | None = None  #: failure triage kind when FAILED
    event: threading.Event = field(default_factory=threading.Event)


@dataclass
class _Entry:
    """One in-flight computation: a unique cache key plus its joiners."""

    key: str
    spec: Any
    priority: int
    seq: int
    state: str = QUEUED
    request_ids: list[str] = field(default_factory=list)
    event: threading.Event = field(default_factory=threading.Event)


@dataclass(frozen=True, slots=True)
class Claim:
    """What the broker takes off the queue: one entry's work order."""

    key: str
    spec: Any
    seq: int
    priority: int
    request_ids: tuple[str, ...]


class ScenarioQueue:
    """Bounded, thread-safe priority queue of scenario requests.

    All mutation happens under one lock, so the counter updates the
    coalescing tests assert exactly are race-free.  The broker claims
    batches with :meth:`claim` and resolves them with :meth:`complete` /
    :meth:`fail`; HTTP handler threads only :meth:`submit`, :meth:`status`
    and :meth:`wait`.
    """

    def __init__(
        self,
        *,
        capacity: int = 64,
        aging_every: int = 8,
        retry_after_hint_s: float = 0.5,
        max_finished: int = 4096,
        metrics: MetricsRegistry | None = None,
        rid_prefix: str = "",
        on_terminal=None,
    ) -> None:
        """Args:
            capacity: maximum distinct queued entries (running entries and
                coalescing joins do not count against it).
            aging_every: admissions per +1 effective-priority boost of a
                waiting entry (smaller ages faster; must be >= 1).
            retry_after_hint_s: base of the deterministic retry-after
                hint returned with rejections.
            max_finished: finished request records kept for status polls
                (oldest are dropped beyond this).
            metrics: the ``service.*`` sink (a private registry when
                omitted).
            rid_prefix: prepended to every request id.  Shard workers use
                ``"s<k>-"`` so ids are globally unique across a fleet and
                the router can address the owning shard from the id alone.
            on_terminal: optional callback invoked with each
                :class:`RequestRecord` as it reaches a terminal state
                (the shard worker's durable spool hook); exceptions are
                swallowed — spooling is best-effort, resolution is not.
        """
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if aging_every < 1:
            raise ValueError("aging_every must be >= 1")
        self.capacity = capacity
        self.aging_every = aging_every
        self.retry_after_hint_s = retry_after_hint_s
        self.max_finished = max_finished
        self.rid_prefix = rid_prefix
        self.on_terminal = on_terminal
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._entries: dict[str, _Entry] = {}
        self._records: dict[str, RequestRecord] = {}
        self._finished: deque[str] = deque()
        self._seq = 0
        self._rid = 0
        self._closed = False

    # -- admission -------------------------------------------------------------

    def submit(self, spec, *, priority: int = 0,
               key: str | None = None) -> Admission:
        """Admit, coalesce, or reject one scenario request.

        Args:
            spec: the :class:`~repro.core.parallel.InstanceSpec` to run.
            priority: larger is more urgent; a coalescing join with a
                higher priority bumps the queued entry (re-prioritization).
            key: canonical cache key override (computed from ``spec`` via
                :func:`~repro.store.keys.instance_key` when omitted).
        """
        with self._lock:
            if key is None:
                key = instance_key(spec)
            if self._closed:
                self.metrics.inc("service.rejected")
                return Admission(admitted=False, status="rejected",
                                 request_id=None, key=key,
                                 depth=self._depth_locked(),
                                 retry_after_s=None, reason="draining")
            entry = self._entries.get(key)
            if entry is not None:
                return self._join_locked(entry, priority)
            depth = self._depth_locked()
            if depth >= self.capacity:
                self.metrics.inc("service.rejected")
                hint = self.retry_after_hint_s * (depth - self.capacity + 1)
                return Admission(admitted=False, status="rejected",
                                 request_id=None, key=key, depth=depth,
                                 retry_after_s=hint, reason="full")
            rid = self._next_rid_locked()
            seq = self._seq
            self._seq += 1
            entry = _Entry(key=key, spec=spec, priority=priority, seq=seq,
                           request_ids=[rid])
            self._entries[key] = entry
            self._records[rid] = RequestRecord(
                request_id=rid, key=key, priority=priority, seq=seq,
                event=entry.event)
            self.metrics.inc("service.admitted")
            self._publish_depth_locked()
            self._work.notify_all()
            return Admission(admitted=True, status="queued", request_id=rid,
                             key=key, depth=self._depth_locked())

    def admit_resolved(self, spec, *, result: dict[str, Any],
                       key: str | None = None) -> Admission:
        """Admit a request already answered (the surrogate fast path).

        Creates a tracked record directly in the DONE terminal state
        carrying ``result``, so status polls, waits and the service
        counters behave exactly as for an executed request — it just
        never consumed a queue slot or a worker.  Returns an admission
        with status ``"done"``.
        """
        with self._lock:
            if key is None:
                key = instance_key(spec)
            rid = self._next_rid_locked()
            rec = RequestRecord(request_id=rid, key=key, priority=0,
                                seq=self._seq, state=DONE)
            rec.wait_s = 0.0
            rec.total_s = rec.clock.elapsed()
            rec.result = result
            rec.event.set()
            self._records[rid] = rec
            self._finished.append(rid)
            self._spool_locked(rec)
            self.metrics.inc("service.admitted")
            self.metrics.inc("service.completed")
            self.metrics.observe("service.request_s", rec.total_s)
            while len(self._finished) > self.max_finished:
                self._records.pop(self._finished.popleft(), None)
            return Admission(admitted=True, status="done", request_id=rid,
                            key=key, depth=self._depth_locked())

    def in_flight(self, key: str) -> bool:
        """Whether ``key`` is currently queued or running.

        The surrogate gate checks this before answering: an identical
        scenario already being computed exactly is better joined (free
        and bit-exact) than emulated.
        """
        with self._lock:
            return key in self._entries

    def _join_locked(self, entry: _Entry, priority: int) -> Admission:
        """Coalesce a request onto an in-flight entry (lock held)."""
        rid = self._next_rid_locked()
        entry.request_ids.append(rid)
        rec = RequestRecord(
            request_id=rid, key=entry.key, priority=entry.priority,
            seq=entry.seq, state=entry.state, coalesced=True,
            event=entry.event)
        self._records[rid] = rec
        self.metrics.inc("service.coalesced")
        if entry.state == QUEUED and priority > entry.priority:
            # OSPREY-style asynchronous re-prioritization: the urgent join
            # promotes the whole queued computation.  Running entries are
            # never preempted — their RNG streams are already committed.
            entry.priority = priority
            for waiting in entry.request_ids:
                self._records[waiting].priority = priority
            self.metrics.inc("service.reprioritized")
        return Admission(admitted=True, status="coalesced", request_id=rid,
                         key=entry.key, depth=self._depth_locked())

    def reprioritize(self, request_id: str, priority: int) -> bool:
        """Raise a queued request's priority; False if not re-orderable."""
        with self._lock:
            rec = self._records.get(request_id)
            if rec is None:
                return False
            entry = self._entries.get(rec.key)
            if entry is None or entry.state != QUEUED:
                return False
            if priority > entry.priority:
                entry.priority = priority
                for waiting in entry.request_ids:
                    self._records[waiting].priority = priority
                self.metrics.inc("service.reprioritized")
            return True

    def _next_rid_locked(self) -> str:
        self._rid += 1
        return f"{self.rid_prefix}r{self._rid:06d}"

    def _spool_locked(self, rec: RequestRecord) -> None:
        """Hand one terminal record to the spool hook (best effort)."""
        if self.on_terminal is None:
            return
        try:
            self.on_terminal(rec)
        except Exception:  # noqa: BLE001 — durability must not block resolution
            self.metrics.inc("service.spool_errors")

    # -- scheduling ------------------------------------------------------------

    def effective_priority(self, entry_priority: int, entry_seq: int) -> int:
        """Aged priority at the current admission sequence."""
        return entry_priority + (self._seq - entry_seq) // self.aging_every

    def claim(self, n: int = 1) -> list[Claim]:
        """Move up to ``n`` best entries to RUNNING and hand them over.

        Order: highest effective (aged) priority first, FIFO within equal
        effective priority.  Returned ``request_ids`` are a snapshot;
        late coalescing joins still resolve through the shared entry.
        """
        with self._lock:
            queued = [e for e in self._entries.values()
                      if e.state == QUEUED]
            queued.sort(key=lambda e: (
                -self.effective_priority(e.priority, e.seq), e.seq))
            claims: list[Claim] = []
            for entry in queued[:n]:
                entry.state = RUNNING
                for rid in entry.request_ids:
                    rec = self._records[rid]
                    rec.state = RUNNING
                    if rec.wait_s is None:
                        rec.wait_s = rec.clock.elapsed()
                        self.metrics.observe("service.wait_s", rec.wait_s)
                claims.append(Claim(
                    key=entry.key, spec=entry.spec, seq=entry.seq,
                    priority=entry.priority,
                    request_ids=tuple(entry.request_ids)))
            self._publish_depth_locked()
            return claims

    def wait_for_work(self, timeout_s: float | None = None) -> bool:
        """Block until something is queued (or closed); True if work."""
        with self._lock:
            if self._closed or any(e.state == QUEUED
                                   for e in self._entries.values()):
                return True
            self._work.wait(timeout_s)
            return any(e.state == QUEUED for e in self._entries.values())

    # -- resolution ------------------------------------------------------------

    def complete(self, key: str, result: dict[str, Any]) -> int:
        """Resolve an entry: every joined request gets ``result``."""
        return self._terminalize(key, DONE, result=result)

    def fail(self, key: str, *, error: str, kind: str = "unknown") -> int:
        """Resolve an entry as failed: a terminal error, never a hang."""
        return self._terminalize(key, FAILED, error=error, kind=kind)

    def cancel_pending(self, *, error: str = "service stopped") -> int:
        """Terminalize every queued entry (non-drain shutdown path)."""
        with self._lock:
            pending = [e.key for e in self._entries.values()
                       if e.state == QUEUED]
        n = 0
        for key in pending:
            n += self._terminalize(key, CANCELLED, error=error)
        return n

    def _terminalize(self, key: str, state: str, *,
                     result: dict[str, Any] | None = None,
                     error: str | None = None,
                     kind: str | None = None) -> int:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return 0
            entry.state = state
            for rid in entry.request_ids:
                rec = self._records[rid]
                rec.state = state
                rec.result = result
                rec.error = error
                rec.kind = kind
                rec.total_s = rec.clock.elapsed()
                self.metrics.observe("service.request_s", rec.total_s)
                self._finished.append(rid)
                self._spool_locked(rec)
            counter = "completed" if state == DONE else state
            self.metrics.inc(f"service.{counter}", len(entry.request_ids))
            while len(self._finished) > self.max_finished:
                self._records.pop(self._finished.popleft(), None)
            self._publish_depth_locked()
            entry.event.set()
            return len(entry.request_ids)

    # -- introspection ---------------------------------------------------------

    def status(self, request_id: str) -> RequestRecord | None:
        """The tracked record (live object; terminal ones never mutate)."""
        with self._lock:
            return self._records.get(request_id)

    def list_records(
        self,
        *,
        state: str | None = None,
        limit: int = 50,
        cursor: str | None = None,
    ) -> tuple[list[RequestRecord], str | None]:
        """Enumerate tracked requests in request-id order, paginated.

        Keyset pagination: ``cursor`` is the last id of the previous page
        and the next page starts strictly after it (ids are fixed-width,
        so string order is admission order).  Returns the page and the
        cursor for the next one (None when this page exhausts the
        registry).  Records admitted behind an old cursor are skipped —
        the standard keyset caveat for a mutating set.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        with self._lock:
            ids = sorted(self._records)
            page: list[RequestRecord] = []
            more = False
            for rid in ids:
                if cursor is not None and rid <= cursor:
                    continue
                rec = self._records[rid]
                if state is not None and rec.state != state:
                    continue
                if len(page) == limit:
                    more = True
                    break
                page.append(rec)
            next_cursor = page[-1].request_id if page and more else None
            return page, next_cursor

    def wait(self, request_id: str,
             timeout_s: float | None = None) -> RequestRecord | None:
        """Block until the request reaches a terminal state."""
        with self._lock:
            rec = self._records.get(request_id)
        if rec is None:
            return None
        if rec.state not in TERMINAL_STATES:
            rec.event.wait(timeout_s)
        return rec

    def depth(self) -> int:
        """Distinct queued (not yet claimed) entries."""
        with self._lock:
            return self._depth_locked()

    def _depth_locked(self) -> int:
        return sum(1 for e in self._entries.values() if e.state == QUEUED)

    def _publish_depth_locked(self) -> None:
        self.metrics.gauge("service.queue_depth", self._depth_locked())

    @property
    def closed(self) -> bool:
        """Whether the queue is draining (no new admissions)."""
        return self._closed

    def close(self) -> None:
        """Stop admitting; queued and running work still completes."""
        with self._lock:
            self._closed = True
            self._work.notify_all()
