"""Retry policy: backoff, timeouts, and transient-vs-permanent triage.

Supervised execution needs one small vocabulary shared by every layer:
which errors are worth retrying (a lost worker, a flaky transfer), which
are poison (a spec that deterministically raises), how long to back off
between attempts, and when to stop trying and quarantine.  The policy is
frozen and seeded so backoff jitter is deterministic — two runs of the
same faulted night sleep the same schedule, which keeps chaos runs
reproducible end to end.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from .faults import InjectedFault, hash_uniform

#: Classification labels.
TRANSIENT = "transient"
PERMANENT = "permanent"


class TransientError(RuntimeError):
    """An error expected to succeed on retry (lost node, flaky link)."""


class PermanentError(RuntimeError):
    """An error retries cannot fix (malformed spec, poisoned input)."""


#: Exception types retried by default: infrastructure failures, not logic
#: errors.  ``InjectedFault`` is transient because every injected site
#: models an infrastructure fault; anything else (ValueError from a bad
#: parameter, KeyError from a missing region) is deterministic poison and
#: retrying it would burn the window re-raising the same exception.
TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    TransientError,
    InjectedFault,
    TimeoutError,
    ConnectionError,
    InterruptedError,
    BrokenProcessPool,
    BrokenPipeError,
)


def classify(exc: BaseException) -> str:
    """Triage an exception: :data:`TRANSIENT` or :data:`PERMANENT`."""
    if isinstance(exc, PermanentError):
        return PERMANENT
    if isinstance(exc, TRANSIENT_TYPES):
        return TRANSIENT
    return PERMANENT


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Knobs for supervised execution of one operation class.

    Attributes:
        max_attempts: total attempts per operation before quarantine
            (1 = no retries).
        base_delay_s: backoff before the first retry.
        factor: exponential growth of the backoff per retry.
        max_delay_s: backoff ceiling.
        jitter: +/- fraction applied to each backoff, drawn
            deterministically from ``seed`` and the operation key (0
            disables jitter).
        timeout_s: per-attempt wall-clock limit; an attempt that exceeds
            it is abandoned and classified transient (None = no limit).
        max_pool_rebuilds: how many times a broken process pool is rebuilt
            before the in-flight work is given up.
        seed: jitter seed.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    factor: float = 2.0
    max_delay_s: float = 5.0
    jitter: float = 0.25
    timeout_s: float | None = None
    max_pool_rebuilds: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")

    @classmethod
    def from_flags(cls, max_attempts: int, fault_seed: int = 0,
                   **knobs) -> "RetryPolicy":
        """The policy ``--retries`` / ``--max-attempts`` name; the jitter
        seed is ``--fault-seed``, so a drill replays its delays."""
        return cls(max_attempts=max_attempts, seed=fault_seed, **knobs)

    def backoff_s(self, key: str, retry_index: int) -> float:
        """Deterministic backoff before retry ``retry_index`` (0-based)."""
        delay = min(self.base_delay_s * self.factor ** retry_index,
                    self.max_delay_s)
        if self.jitter and delay > 0:
            u = hash_uniform(self.seed, "backoff", key, retry_index)
            delay *= 1.0 + self.jitter * (2.0 * u - 1.0)
        return delay


#: Policy used when a caller asks for supervision without tuning knobs.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Policy that reproduces unsupervised semantics: one attempt, no waiting
#: (pool rebuilds still happen — losing a worker should never lose a run).
NO_RETRY_POLICY = RetryPolicy(max_attempts=1, base_delay_s=0.0, jitter=0.0)


@dataclass(frozen=True)
class QuarantineRecord:
    """One operation given up on: what failed, how, and how often.

    Attributes:
        key: the operation key (an instance label, a transfer name).
        item: the quarantined work item itself (an ``InstanceSpec``).
        error: the final exception, rendered.
        kind: :data:`TRANSIENT` (attempts exhausted), :data:`PERMANENT`
            (poison, not retried), or ``"pool"`` (repeated pool breakage).
        attempts: how many attempts were made.
    """

    key: str
    item: Any
    error: str
    kind: str
    attempts: int

    def describe(self) -> str:
        """One quarantine-report line."""
        return (f"{self.key}: {self.kind} after {self.attempts} "
                f"attempt{'s' if self.attempts != 1 else ''} — {self.error}")
