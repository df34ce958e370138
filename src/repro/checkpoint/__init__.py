"""Checkpointed execution: bounded-loss restart for long simulations.

The paper's workflows assume multi-week EpiHiper campaigns on shared HPC
queues where preemption and node failure are routine.  Without snapshots a
crash forfeits the whole instance and the supervisor re-executes from tick
0, so expected lost work grows linearly with instance runtime.  This
package turns retry cost from O(run) into O(checkpoint interval):

- :mod:`repro.checkpoint.format` — deterministic snapshot/restore of an
  in-flight :class:`~repro.epihiper.engine.Simulation` (state arrays,
  dwell timers, intervention closure state, exact RNG stream position)
  with a bit-identical resume guarantee;
- :mod:`repro.checkpoint.manager` — the durability layer: snapshots are
  published through the CAS as content-addressed ``checkpoint/v1`` blobs
  keyed by (instance cache key, tick), with an atomic per-instance
  pointer, SHA-256 integrity like result blobs, lease heartbeats on every
  write, and corrupt-blob fallback to the next-older snapshot.
"""

from .format import (
    CheckpointError,
    restore_simulation,
    snapshot_simulation,
)
from .manager import (
    CHECKPOINT_NAMESPACE,
    CheckpointManager,
    CheckpointPlan,
    checkpoint_blob_key,
    checkpoint_plan,
)

__all__ = [
    "CHECKPOINT_NAMESPACE",
    "CheckpointError",
    "CheckpointManager",
    "CheckpointPlan",
    "checkpoint_blob_key",
    "checkpoint_plan",
    "restore_simulation",
    "snapshot_simulation",
]
