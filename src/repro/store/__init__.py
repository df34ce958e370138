"""Content-addressed result store + resumable run ledger.

The paper's nightly pipeline re-executes heavily overlapping
<cell, region, replicate> sets night after night, and a failure inside the
10-hour window must not forfeit completed work (Sections II, IV).  This
subsystem is the reproduction's durability layer:

- :mod:`~repro.store.keys` — canonical, code-version-salted cache keys;
- :mod:`~repro.store.cas` — the content-addressed blob store;
- :mod:`~repro.store.ledger` — the append-only JSONL run journal;
- :mod:`~repro.store.files` — the shared on-disk idioms (journal
  open/read, atomic publish, JSON-or-absent, pid liveness);
- :mod:`~repro.store.memo` — the payload codec, publish and remote-lease
  steps of memoized execution (``supervise_instances(store=…)``).
"""

from .cas import (
    LEASE_DONE,
    LEASE_TIMEOUT,
    LEASE_VACATED,
    ContentStore,
    LeaseTable,
    default_store,
    open_store,
)
from .keys import (
    INSTANCE_NAMESPACE,
    canonical_params,
    canonical_value,
    code_version_salt,
    instance_key,
)
from .ledger import LedgerReplay, RunLedger, replay_ledger
from .memo import outcome_from_payload, outcome_payload

__all__ = [
    "ContentStore",
    "INSTANCE_NAMESPACE",
    "LEASE_DONE",
    "LEASE_TIMEOUT",
    "LEASE_VACATED",
    "LeaseTable",
    "LedgerReplay",
    "RunLedger",
    "canonical_params",
    "canonical_value",
    "code_version_salt",
    "default_store",
    "instance_key",
    "open_store",
    "outcome_from_payload",
    "outcome_payload",
    "replay_ledger",
]
