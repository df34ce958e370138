"""Resilient execution plane: fault injection, retries, supervision.

One failure model serves the live runtime and the modelled cluster the
night schedules on, the way the paper's 30-week nightly operation needed
both to survive:

- :mod:`~repro.resilience.faults` — a deterministic, seedable
  :class:`FaultPlan` consulted at every fault site across the runner,
  store, transfer, journal and modelled-scheduler layers (the ``repro
  chaos`` CLI drives it);
- :mod:`~repro.resilience.retry` — :class:`RetryPolicy` (exponential
  backoff, deterministic jitter, timeouts) and transient-vs-permanent
  error triage;
- :mod:`~repro.resilience.supervisor` — :func:`supervise_map`, the
  future-based fan-out with broken-pool rebuild, result salvage and
  quarantine that replaced ``pool.map`` in
  :func:`repro.core.parallel.run_instances`.

The invariant tying it together: recovery re-enters the same RNG streams,
so a faulted run's surviving results are bit-identical to a clean run's.
The package depends only on :mod:`repro.obs` and the standard library,
so any layer can consult a plan without an import cycle.
"""

from .faults import (
    CRASH_EXIT_CODE,
    FAULT_SITES,
    FaultPlan,
    FaultRule,
    InjectedFault,
    hash_uniform,
)
from .retry import (
    DEFAULT_RETRY_POLICY,
    NO_RETRY_POLICY,
    PERMANENT,
    TRANSIENT,
    PermanentError,
    QuarantineRecord,
    RetryPolicy,
    TransientError,
    classify,
)
from .supervisor import QUARANTINE, RAISE, FanoutResult, supervise_map

__all__ = [
    "CRASH_EXIT_CODE",
    "DEFAULT_RETRY_POLICY",
    "FAULT_SITES",
    "FanoutResult",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "NO_RETRY_POLICY",
    "PERMANENT",
    "PermanentError",
    "QUARANTINE",
    "QuarantineRecord",
    "RAISE",
    "RetryPolicy",
    "TRANSIENT",
    "TransientError",
    "classify",
    "hash_uniform",
    "supervise_map",
]
