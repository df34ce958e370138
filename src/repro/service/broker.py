"""The broker loop: drain the queue into supervised, memoized fan-outs.

The broker is the service plane's execution engine.  One daemon thread
repeatedly claims the highest-effective-priority batch from the
:class:`~repro.service.queue.ScenarioQueue` and pushes it through
:func:`repro.core.parallel.supervise_instances` with the service's store —
so every batch gets the whole stack for free: store hits skip execution,
misses run under the resilient fan-out (retry, broken-pool rebuild,
quarantine), and completed results are published back as
content-addressed blobs for the next identical request to coalesce onto
or hit in the store.

Terminal-state mapping is the broker's one real job: each claimed entry
either completes with the exact payload arrays the store holds, or fails
with the quarantine record's rendered error — every request reaches a
terminal state, never a hang, even when workers crash mid-batch.

Re-prioritization falls out of batching: claims happen at batch
boundaries, so an urgent request submitted while a batch runs outranks
everything still queued at the next claim — queued work is preempted,
running work is not (its RNG streams are already committed).
"""

from __future__ import annotations

import threading

from ..core.parallel import supervise_instances
from ..obs.registry import MetricsRegistry, Stopwatch
from ..resilience.supervisor import QUARANTINE
from ..store.memo import outcome_payload
from .queue import Claim, ScenarioQueue

#: How long the idle loop blocks waiting for work before it re-checks
#: for a stop request.
IDLE_WAIT_S: float = 0.1


class Broker:
    """Background consumer of a :class:`ScenarioQueue`.

    Args:
        queue: the admission queue to drain.
        store: content store for memoized execution (None = always run).
        ledger: optional run journal for batch/instance events.
        salt: cache-key salt override (tests).
        registry: ``service.*`` / ``memo.*`` / ``retry.*`` sink; defaults
            to the queue's own metrics registry.
        tracer: optional :class:`~repro.obs.spans.Tracer`; the broker
            thread records one ``request:<id>`` span per served request
            (modelled on the admission-sequence clock) and a
            ``service:batch`` span per fan-out.
        batch_size: max entries claimed per fan-out.
        max_workers / parallel: forwarded to the fan-out.
        retry: per-instance :class:`~repro.resilience.retry.RetryPolicy`.
        faults: optional :class:`~repro.resilience.faults.FaultPlan`
            threaded to workers (service chaos drills).
        leases: optional :class:`~repro.store.cas.LeaseTable` giving the
            fan-out cross-process execution exclusivity (every
            ``repro serve`` on one store); see
            :func:`~repro.core.parallel.supervise_instances`.
        checkpoint: optional :class:`~repro.checkpoint.CheckpointPlan`;
            when enabled, in-flight instances snapshot state through the
            CAS and retries after mid-run worker deaths resume instead
            of restarting (``checkpoint.*`` counters land in
            ``/v1/metrics``).
    """

    def __init__(
        self,
        queue: ScenarioQueue,
        *,
        store=None,
        ledger=None,
        salt: str | None = None,
        registry: MetricsRegistry | None = None,
        tracer=None,
        batch_size: int = 4,
        max_workers: int | None = None,
        parallel: bool = True,
        retry=None,
        faults=None,
        leases=None,
        checkpoint=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.queue = queue
        self.store = store
        self.ledger = ledger
        self.salt = salt
        self.registry = (registry if registry is not None
                         else queue.metrics)
        self.tracer = tracer
        self.batch_size = batch_size
        self.max_workers = max_workers
        self.parallel = parallel
        self.retry = retry
        self.faults = faults
        self.leases = leases
        self.checkpoint = checkpoint
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._drain = True

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "Broker":
        """Start the loop thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-broker", daemon=True)
        self._thread.start()
        return self

    def stop(self, *, drain: bool = True,
             timeout_s: float | None = None) -> None:
        """Stop the loop.

        Args:
            drain: finish everything queued first; False cancels pending
                entries (their requests reach a CANCELLED terminal state
                so no waiter ever hangs).
            timeout_s: join timeout for the loop thread.
        """
        self._drain = drain
        self._stop.set()
        # Wake a loop blocked in wait_for_work.
        self.queue.close()
        if self._thread is not None:
            self._thread.join(timeout_s)
        if not drain:
            self.queue.cancel_pending()

    @property
    def running(self) -> bool:
        """Whether the loop thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def _loop(self) -> None:
        while True:
            ran = self.run_once()
            if ran:
                continue
            if self._stop.is_set():
                if not self._drain or self.queue.depth() == 0:
                    return
                continue
            self.queue.wait_for_work(IDLE_WAIT_S)

    # -- execution -------------------------------------------------------------

    def run_once(self) -> int:
        """Claim and execute one batch; returns requests resolved.

        Public so tests (and serial embeddings) can drive the broker
        deterministically without the background thread.
        """
        batch = self.queue.claim(self.batch_size)
        if not batch:
            return 0
        return self._run_batch(batch)

    def _run_batch(self, batch: list[Claim]) -> int:
        watch = Stopwatch()
        specs = [c.spec for c in batch]
        res = supervise_instances(
            specs, store=self.store, ledger=self.ledger, salt=self.salt,
            registry=self.registry, max_workers=self.max_workers,
            parallel=self.parallel, retry=self.retry, faults=self.faults,
            leases=self.leases, on_failure=QUARANTINE,
            checkpoint=self.checkpoint)
        batch_s = watch.elapsed()
        self.registry.observe("service.batch_s", batch_s)
        # Quarantine records carry the per-position spec, so identity maps
        # each failed claim to its triage record.
        failed = {id(rec.item): rec for rec in res.quarantined}
        resolved = 0
        for claim, outcome in zip(batch, res.results):
            if outcome is not None:
                resolved += self.queue.complete(
                    claim.key, outcome_payload(outcome))
                state = "done"
            else:
                rec = failed.get(id(claim.spec))
                error = rec.error if rec is not None else "execution failed"
                kind = rec.kind if rec is not None else "unknown"
                resolved += self.queue.fail(claim.key, error=error,
                                            kind=kind)
                state = "failed"
            if self.tracer is not None:
                # The broker thread is the only span writer, so the
                # (thread-unsafe) tracer is safe here; spans are modelled
                # on the admission-sequence clock.
                for rid in claim.request_ids:
                    self.tracer.modelled_span(
                        f"request:{rid}", start=float(claim.seq),
                        wall_s=batch_s, key=claim.key[:12], state=state,
                        priority=claim.priority,
                        coalesced=len(claim.request_ids) - 1)
        if self.tracer is not None:
            self.tracer.modelled_span(
                "service:batch", start=float(batch[0].seq), wall_s=batch_s,
                entries=len(batch), requests=resolved,
                quarantined=len(res.quarantined))
        return resolved

    # -- telemetry -------------------------------------------------------------

    def metrics_view(self) -> MetricsRegistry:
        """A merged snapshot view: broker registry plus store counters."""
        view = MetricsRegistry().merge(self.registry)
        if self.store is not None:
            view.merge(self.store.metrics)
        return view
