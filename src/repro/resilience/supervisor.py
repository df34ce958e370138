"""Supervised fan-out: future-based submission with retry and quarantine.

``pool.map`` is an all-or-nothing contract: one worker exception aborts
the whole batch, one dead worker process poisons every pending result.
:func:`supervise_map` replaces it with per-item futures under a
supervisor loop that implements the operations discipline the paper's
30-week nightly pipeline relied on:

- every item is retried under a :class:`~repro.resilience.retry.RetryPolicy`
  (exponential backoff with deterministic jitter, per-attempt timeouts,
  transient-vs-permanent triage);
- a ``BrokenProcessPool`` rebuilds the pool, salvages every result already
  harvested, and resubmits only the in-flight items (bounded by
  ``max_pool_rebuilds`` against crash loops);
- items that exhaust their attempts — or fail permanently on the first —
  are quarantined, so the batch returns partial results plus a quarantine
  report instead of dying;
- every attempt, retry, backoff and quarantine is published as ``retry.*``
  metrics, and injected faults are counted under ``faults.*``.

The function is generic over the work item so the same supervisor serves
instance fan-out today and any future batch executor; it deliberately
knows nothing about simulations.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..obs.registry import MetricsRegistry, Stopwatch, global_registry
from .faults import FaultPlan, InjectedFault
from .retry import (
    NO_RETRY_POLICY,
    PERMANENT,
    QuarantineRecord,
    RetryPolicy,
    classify,
)

#: Failure disposition: propagate the first give-up, or collect it.
RAISE = "raise"
QUARANTINE = "quarantine"


@dataclass
class FanoutResult:
    """Outcome of one supervised batch.

    Attributes:
        results: one entry per input item, in input order; ``None`` marks
            a quarantined item.
        quarantined: the items given up on, in input order.
        attempts: total submissions across the batch (>= len(items)).
        retries: resubmissions after a classified failure.
        pool_rebuilds: times a broken process pool was rebuilt.
        ticks_saved: simulation ticks *not* re-executed because retries
            resumed from checkpoints instead of tick 0 (0 when
            checkpointing is off).
    """

    results: list[Any]
    quarantined: list[QuarantineRecord] = field(default_factory=list)
    attempts: int = 0
    retries: int = 0
    pool_rebuilds: int = 0
    ticks_saved: int = 0

    @property
    def ok(self) -> bool:
        """Whether every item produced a result."""
        return not self.quarantined

    def completed(self) -> list[Any]:
        """The non-quarantined results, input order preserved."""
        return [r for r in self.results if r is not None]

    def summary(self) -> str:
        """Human-readable batch digest plus the quarantine report."""
        n = len(self.results)
        lines = [
            f"{n - len(self.quarantined)}/{n} completed, "
            f"{self.attempts} attempts ({self.retries} retries, "
            f"{self.pool_rebuilds} pool rebuilds)"
        ]
        if self.ticks_saved:
            lines.append(
                f"checkpoint resume saved {self.ticks_saved} ticks of work")
        if self.quarantined:
            lines.append(f"quarantined {len(self.quarantined)}:")
            lines.extend("  " + q.describe() for q in self.quarantined)
        return "\n".join(lines)


class _Supervisor:
    """Shared bookkeeping between the serial and pooled execution paths."""

    def __init__(self, items: Sequence[Any], keys: Sequence[str], *,
                 retry: RetryPolicy, on_failure: str,
                 registry: MetricsRegistry, ledger=None,
                 on_result: Callable[[int, Any], None] | None = None,
                 start_attempts: Sequence[int] | None = None,
                 prior_failures: Sequence[int] | None = None) -> None:
        if on_failure not in (RAISE, QUARANTINE):
            raise ValueError(f"on_failure must be {RAISE!r} or {QUARANTINE!r}")
        self.items = items
        self.keys = keys
        self.retry = retry
        self.on_failure = on_failure
        self.reg = registry
        self.ledger = ledger
        self.on_result = on_result
        self.results: list[Any] = [None] * len(items)
        self.done: list[bool] = [False] * len(items)
        self.failures = (list(prior_failures) if prior_failures is not None
                         else [0] * len(items))
        self.start_attempts = (list(start_attempts)
                               if start_attempts is not None
                               else [0] * len(items))
        self.quarantined: list[tuple[int, QuarantineRecord]] = []
        self.attempts = 0
        self.retries = 0
        self.pool_rebuilds = 0

    def record_attempt(self) -> None:
        self.attempts += 1
        self.reg.inc("retry.attempts")

    def harvest(self, i: int, result: Any) -> None:
        self.results[i] = result
        self.done[i] = True
        if self.on_result is not None:
            self.on_result(i, result)

    def give_up(self, i: int, exc: BaseException, kind: str,
                attempts: int) -> None:
        """Quarantine item ``i`` — or propagate, per ``on_failure``."""
        self.reg.inc("retry.quarantined")
        if self.ledger is not None:
            self.ledger.instance_failed(
                self.keys[i], error=f"{type(exc).__name__}: {exc}",
                quarantined=True, kind=kind, attempts=attempts)
        if self.on_failure == RAISE:
            raise exc
        self.quarantined.append((i, QuarantineRecord(
            key=self.keys[i], item=self.items[i],
            error=f"{type(exc).__name__}: {exc}", kind=kind,
            attempts=attempts)))

    def on_error(self, i: int, attempt: int,
                 exc: BaseException) -> float | None:
        """Classify a failed attempt.

        Returns the backoff (seconds) before the retry, or None when the
        item was given up.
        """
        if isinstance(exc, InjectedFault):
            self.reg.inc(f"faults.{exc.site}")
        self.reg.inc("retry.failures")
        kind = classify(exc)
        self.failures[i] += 1
        if kind == PERMANENT or self.failures[i] >= self.retry.max_attempts:
            self.give_up(i, exc, kind, attempts=attempt + 1)
            return None
        self.retries += 1
        self.reg.inc("retry.retries")
        delay = self.retry.backoff_s(self.keys[i], self.failures[i] - 1)
        self.reg.observe("retry.backoff_s", delay)
        return delay

    def result(self) -> FanoutResult:
        self.quarantined.sort(key=lambda pair: pair[0])
        return FanoutResult(
            results=self.results,
            quarantined=[rec for _i, rec in self.quarantined],
            attempts=self.attempts,
            retries=self.retries,
            pool_rebuilds=self.pool_rebuilds,
        )


def supervise_map(
    fn: Callable[..., Any],
    items: Sequence[Any],
    *,
    keys: Sequence[str] | None = None,
    make_pool: Callable[[], Any] | None = None,
    pool_fn: Callable[..., Any] | None = None,
    submit_order: Sequence[int] | None = None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    on_failure: str = QUARANTINE,
    registry: MetricsRegistry | None = None,
    ledger=None,
    on_result: Callable[[int, Any], None] | None = None,
    start_attempts: Sequence[int] | None = None,
    prior_failures: Sequence[int] | None = None,
    timeout_of: Callable[[Any, int], float | None] | None = None,
) -> FanoutResult:
    """Execute ``fn(item, attempt, faults)`` for every item, supervised.

    Args:
        fn: the work function for in-process execution; called as
            ``fn(item, attempt, faults)``.
        items: the work items (results come back in this order).
        keys: per-item operation keys for fault matching, backoff jitter
            and ledger records (default: the item's string form).
        make_pool: zero-arg factory returning a pool to run on (anything
            with ``submit`` and ``shutdown``: a fresh executor, or a
            handle on a long-lived one whose ``shutdown`` hands it
            back); None runs everything in-process.  The factory is
            re-invoked after a ``BrokenProcessPool``.
        pool_fn: picklable top-level work function used for pool
            submission (defaults to ``fn``); split from ``fn`` so the
            pooled variant may take worker-only liberties (``os._exit``
            crash injection) the in-process variant must not.
        submit_order: index order for initial submission (the caller's
            schedule, e.g. longest-predicted-first); results are still
            returned in input order.
        retry: the :class:`~repro.resilience.retry.RetryPolicy`; None
            means one attempt per item with no backoff (pool rebuilds
            still bounded and active).
        faults: optional :class:`~repro.resilience.faults.FaultPlan`
            forwarded to every ``fn`` call.
        on_failure: ``"raise"`` propagates the first given-up item's
            exception (the historical ``pool.map`` contract);
            ``"quarantine"`` collects it and keeps going.
        registry: ``retry.*`` / ``faults.*`` metrics sink (defaults to the
            process global registry).
        ledger: optional run ledger; quarantines are journaled as
            ``instance_failed`` events with ``quarantined=True``.
        on_result: callback invoked as ``on_result(index, result)`` the
            moment each item's result is harvested — the hook that lets
            callers merge worker telemetry incrementally instead of
            losing it all to a mid-batch exception.
        start_attempts: per-item first attempt number (default 0).  Used
            by callers resuming items whose earlier attempts ran
            elsewhere — a spec evicted from a replicate batch re-enters
            the solo fan-out at attempt 1, so fault rules and backoff
            keys see one consistent attempt sequence.
        prior_failures: per-item failure counts already charged against
            the retry budget (default 0); combined with
            ``start_attempts`` this makes quarantine ``attempts``
            accounting match an uninterrupted run.
        timeout_of: optional ``(item, attempt) -> seconds | None``
            overriding the policy's flat per-attempt timeout.  Lets a
            checkpoint-aware caller scale the deadline to the work
            actually *remaining* — a resumed attempt near the end of a
            long run should not inherit the full-run budget, and a
            restart from tick 0 should not be cut short by a deadline
            sized for the tail.  Pooled execution only (the serial path
            never enforces timeouts).

    Returns:
        A :class:`FanoutResult` (partial on quarantine, never on error —
        errors either retry, quarantine, or propagate per ``on_failure``).
    """
    sup = _Supervisor(
        items, list(keys) if keys is not None else [str(x) for x in items],
        retry=retry or NO_RETRY_POLICY, on_failure=on_failure,
        registry=registry if registry is not None else global_registry(),
        ledger=ledger, on_result=on_result,
        start_attempts=start_attempts, prior_failures=prior_failures)
    if not items:
        return sup.result()
    if make_pool is None:
        _run_serial(sup, fn, faults)
    else:
        _run_pooled(sup, pool_fn or fn, faults, make_pool,
                    submit_order=submit_order, timeout_of=timeout_of)
    return sup.result()


def _run_serial(sup: _Supervisor, fn: Callable[..., Any],
                faults: FaultPlan | None) -> None:
    """In-process execution with the same retry/quarantine semantics.

    Per-attempt timeouts are not enforced here: there is no second
    process to abandon a stuck attempt from (the pooled path enforces
    them).
    """
    for i, item in enumerate(sup.items):
        attempt = sup.start_attempts[i]
        while True:
            sup.record_attempt()
            try:
                result = fn(item, attempt, faults)
            except Exception as exc:  # noqa: BLE001 — triaged by policy
                delay = sup.on_error(i, attempt, exc)
                if delay is None:
                    break  # quarantined (give_up raises under "raise")
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
            else:
                sup.harvest(i, result)
                break


def _run_pooled(sup: _Supervisor, fn: Callable[..., Any],
                faults: FaultPlan | None, make_pool: Callable[[], Any], *,
                submit_order: Sequence[int] | None = None,
                timeout_of: Callable[[Any, int], float | None] | None = None,
                ) -> None:
    """Future-based pool execution with rebuild-and-salvage supervision."""
    clock = Stopwatch()
    pool = make_pool()
    pending: dict[Future, tuple[int, int]] = {}
    deadlines: dict[Future, tuple[float, float]] = {}  # fut -> (dl, budget)
    delayed: list[tuple[float, int, int, int]] = []  # (ready, seq, i, att)
    seq = 0

    def attempt_timeout(i: int, attempt: int) -> float | None:
        if timeout_of is not None:
            return timeout_of(sup.items[i], attempt)
        return sup.retry.timeout_s

    def submit(i: int, attempt: int) -> None:
        sup.record_attempt()
        fut = pool.submit(fn, sup.items[i], attempt, faults)
        pending[fut] = (i, attempt)
        budget = attempt_timeout(i, attempt)
        if budget is not None:
            deadlines[fut] = (clock.elapsed() + budget, budget)

    try:
        for i in (submit_order if submit_order is not None
                  else range(len(sup.items))):
            submit(i, sup.start_attempts[i])
        while pending or delayed:
            now = clock.elapsed()
            while delayed and delayed[0][0] <= now:
                _ready, _seq, i, attempt = heapq.heappop(delayed)
                submit(i, attempt)
            if not pending:
                time.sleep(max(0.0, delayed[0][0] - now))
                continue
            wait_s = None
            if delayed:
                wait_s = max(0.0, delayed[0][0] - now)
            if deadlines:
                until_deadline = max(
                    0.0, min(dl for dl, _b in deadlines.values()) - now)
                wait_s = (until_deadline if wait_s is None
                          else min(wait_s, until_deadline))
            finished, _ = wait(set(pending), timeout=wait_s,
                               return_when=FIRST_COMPLETED)
            broken: list[tuple[int, int]] = []
            for fut in finished:
                i, attempt = pending.pop(fut)
                deadlines.pop(fut, None)
                try:
                    result = fut.result()
                except BrokenProcessPool:
                    broken.append((i, attempt))
                except Exception as exc:  # noqa: BLE001 — triaged
                    delay = sup.on_error(i, attempt, exc)
                    if delay is not None:
                        heapq.heappush(
                            delayed,
                            (clock.elapsed() + delay, seq, i, attempt + 1))
                        seq += 1
                else:
                    sup.harvest(i, result)
            # Per-attempt timeouts: abandon overdue futures.  A running
            # worker cannot be interrupted, so its eventual result is
            # simply discarded (it is no longer tracked) while the item
            # retries on a free worker — the idempotent-replicate
            # property makes the duplicate execution harmless.
            if deadlines:
                now = clock.elapsed()
                overdue = [f for f, (dl, _b) in deadlines.items()
                           if dl <= now]
                for fut in overdue:
                    i, attempt = pending.pop(fut)
                    _dl, budget = deadlines.pop(fut)
                    fut.cancel()
                    delay = sup.on_error(
                        i, attempt,
                        TimeoutError(f"attempt exceeded {budget:g}s"))
                    if delay is not None:
                        heapq.heappush(delayed,
                                       (now + delay, seq, i, attempt + 1))
                        seq += 1
            if broken:
                # The pool is dead: every still-pending future is lost
                # with it.  Salvage is implicit — results harvested above
                # stay harvested; only unfinished work is resubmitted.
                broken.extend(pending.values())
                pending.clear()
                deadlines.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                if sup.pool_rebuilds >= sup.retry.max_pool_rebuilds:
                    # No pool to run on any more: in-flight items AND
                    # items waiting out a backoff are both stranded.
                    broken.extend((i, attempt - 1)
                                  for _r, _s, i, attempt in delayed)
                    delayed.clear()
                    exc = BrokenProcessPool(
                        f"process pool broke "
                        f"{sup.pool_rebuilds + 1} times; giving up on "
                        f"{len(broken)} in-flight items")
                    for i, attempt in sorted(broken):
                        sup.give_up(i, exc, "pool", attempts=attempt + 1)
                    continue
                sup.pool_rebuilds += 1
                sup.reg.inc("retry.pool_rebuilds")
                pool = make_pool()
                # A crash consumes the attempt it killed: resubmitting at
                # attempt + 1 is what lets a ``times=1`` crash rule stop
                # firing (and backoff keys stay deterministic).
                for i, attempt in sorted(broken):
                    submit(i, attempt + 1)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
