"""Append-only JSONL run ledger: what happened, and what can be skipped.

The paper's pipeline ran nightly inside a fixed 10-hour window; a crash at
hour nine must not forfeit nine hours of completed replicates.  The ledger
is the crash-safe record that makes that recovery possible: every event is
one JSON line appended and flushed immediately, so the journal survives the
process dying mid-run (at worst the final line is truncated, and replay
skips unparseable lines).  Replaying a ledger yields the set of completed
instances, which the orchestrator subtracts from a re-run of the same
night and the memoizer can cross-check against the blob store.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, IO

from .files import open_journal, read_jsonl


class RunLedger:
    """An append-only event journal backed by one JSONL file.

    The file handle is opened lazily and every append is flushed, so a
    ledger object can be long-lived and still lose at most the event being
    written when the process dies.  Appends are serialised by one lock:
    a service's HTTP handler threads journal admission hits beside its
    broker thread, and interleaved writes would tear lines.

    Args:
        path: the JSONL journal file.
        run_id: stamped on every event when given.
        faults: optional :class:`~repro.resilience.faults.FaultPlan`; a
            firing ``ledger.torn`` rule truncates that event's line
            mid-write — the record is lost exactly as a crash would lose
            it, and replay must skip it.  ``torn_events`` counts the
            injections.
    """

    def __init__(self, path: str | Path, *, run_id: str | None = None,
                 faults=None) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self.faults = faults
        self.torn_events = 0
        self._event_seq: Counter = Counter()
        self._fh: IO[str] | None = None
        self._lock = threading.Lock()

    def append(self, event: str, **fields: Any) -> dict[str, Any]:
        """Record one event.  Returns the record written."""
        record: dict[str, Any] = {"event": event, "ts": time.time()}
        if self.run_id is not None:
            record["run_id"] = self.run_id
        record.update(fields)
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._fh is None:
                self._fh = open_journal(self.path)
            if self.faults is not None:
                attempt = self._event_seq[event]
                self._event_seq[event] += 1
                if self.faults.fires("ledger.torn", event, attempt):
                    # A torn write: half the line reaches disk, the record
                    # is gone.  The newline keeps subsequent appends
                    # parseable, mimicking a crash-then-restart journal.
                    self.torn_events += 1
                    line = line[: max(1, len(line) // 2)]
            self._fh.write(line + "\n")
            self._fh.flush()
        return record

    def work_shed(self, key: str, **fields: Any) -> dict[str, Any]:
        """One planned instance was shed by deadline-aware degradation."""
        return self.append("work_shed", key=key, **fields)

    # Typed conveniences: the event vocabulary the pipeline emits.

    def run_started(self, **fields: Any) -> dict[str, Any]:
        """A run (calibration batch, nightly cycle) began."""
        return self.append("run_started", **fields)

    def run_completed(self, **fields: Any) -> dict[str, Any]:
        """A run finished; carries batch-level counters."""
        return self.append("run_completed", **fields)

    def instance_completed(self, key: str, **fields: Any) -> dict[str, Any]:
        """One instance finished and its result is durable."""
        return self.append("instance_completed", key=key, **fields)

    def instance_failed(self, key: str, error: str,
                        **fields: Any) -> dict[str, Any]:
        """One instance raised; the error is recorded, not swallowed."""
        return self.append("instance_failed", key=key, error=error, **fields)

    def cache_hit(self, key: str, **fields: Any) -> dict[str, Any]:
        """One instance was served from the store instead of executed."""
        return self.append("cache_hit", key=key, **fields)

    def close(self) -> None:
        """Close the underlying file (appends reopen it)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class LedgerReplay:
    """The parsed view of a ledger file."""

    events: tuple[dict[str, Any], ...]

    def count(self, event: str) -> int:
        """Occurrences of one event type."""
        return sum(1 for e in self.events if e["event"] == event)

    def counts(self) -> dict[str, int]:
        """Event-type histogram."""
        return dict(Counter(e["event"] for e in self.events))

    def completed(self, field: str = "key",
                  **match: Any) -> set[Any]:
        """Values of ``field`` across ``instance_completed`` events.

        Keyword filters restrict to events whose fields match (e.g.
        ``night="prediction:FFDT-DC:seed0"`` scopes resume to one night).
        """
        out = set()
        for e in self.events:
            if e["event"] != "instance_completed":
                continue
            if any(e.get(k) != v for k, v in match.items()):
                continue
            if field in e:
                out.add(e[field])
        return out

    def summary(self) -> str:
        """Human-readable replay digest."""
        parts = [f"{name}={n}" for name, n in sorted(self.counts().items())]
        return f"{len(self.events)} events: " + ", ".join(parts)


def replay_ledger(path: str | Path) -> LedgerReplay:
    """Parse a ledger file into a :class:`LedgerReplay`.

    A missing file replays as empty (a first run is a resume from
    nothing); unparseable lines — a torn final write — are skipped.
    """
    return LedgerReplay(events=tuple(
        record for record in read_jsonl(path) if "event" in record))
