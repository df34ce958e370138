"""Globus-style data transfer between the two clusters (Section IV).

"The data transfer between the home cluster and remote super-computing
cluster utilizes the Globus platform."  This model reproduces the transfer
timing and volume accounting of Figure 1 / Table II: endpoints with a
bandwidth and per-transfer startup latency, a manual-initiation delay (the
paper starts configuration transfers manually), and a ledger of everything
moved in each direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.registry import MetricsRegistry
from ..params import GB, MB, TB, fmt_bytes
from ..resilience.faults import FaultPlan, InjectedFault, hash_uniform
from ..resilience.retry import RetryPolicy, TransientError

#: Effective wide-area bandwidth between UVA and PSC (bytes/second).
DEFAULT_BANDWIDTH: float = 1.2 * GB  # ~10 Gbit/s effective
#: Per-transfer checksum/startup overhead.
STARTUP_SECONDS: float = 20.0


@dataclass(frozen=True, slots=True)
class TransferRecord:
    """One completed transfer."""

    name: str
    src: str
    dst: str
    size_bytes: int
    duration: float


@dataclass
class GlobusLink:
    """A bidirectional transfer link between two endpoints.

    Args:
        endpoint_a / endpoint_b: endpoint names ("rivanna", "bridges").
        bandwidth: bytes per second.
        manual_delay: seconds of human latency before a manually started
            transfer actually begins (Figure 2's human-effort steps).
        metrics: registry the link publishes into — ``globus.transfers``,
            ``globus.bytes_out`` (a→b), ``globus.bytes_in`` (b→a) and the
            ``globus.transfer_s`` timer; pass a shared registry to fold
            transfer accounting into a night's telemetry.
        faults: optional fault plan; a firing ``transfer.fail`` rule makes
            an attempt of :meth:`transfer` raise, exercising the retry
            loop below (keyed by transfer name, so retries of the same
            transfer advance the rule's attempt count).
        retry: attempts budget for faulted transfers; defaults to one
            attempt (no retries) when omitted.
    """

    endpoint_a: str
    endpoint_b: str
    bandwidth: float = DEFAULT_BANDWIDTH
    manual_delay: float = 0.0
    records: list[TransferRecord] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    faults: FaultPlan | None = None
    retry: RetryPolicy | None = None

    def duration_of(self, size_bytes: int) -> float:
        """Modelled wall-clock for one transfer of ``size_bytes``."""
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        return STARTUP_SECONDS + self.manual_delay + size_bytes / self.bandwidth

    def transfer(
        self, name: str, src: str, dst: str, size_bytes: int,
    ) -> TransferRecord:
        """Execute (account) a transfer and append it to the ledger.

        Under an active ``transfer.fail`` fault the call retries up to the
        link's :class:`RetryPolicy` budget (``max_attempts``, default one
        attempt), counting ``faults.transfer.fail`` per injected failure
        and ``globus.retries`` per re-attempt; exhausting the budget
        raises :class:`~repro.resilience.retry.TransientError`.  Each
        interrupted attempt wastes 10-90 % of the transfer's duration (a
        keyed draw) before the restart, and that time is charged to the
        record; a retried transfer still appears once in the ledger,
        exactly as a re-submitted Globus task would.
        """
        if {src, dst} - {self.endpoint_a, self.endpoint_b}:
            raise ValueError(f"unknown endpoint in {src!r}->{dst!r}")
        if src == dst:
            raise ValueError("src and dst must differ")
        duration = self.duration_of(size_bytes)
        wasted = 0.0
        if self.faults is not None and self.faults.active("transfer.fail"):
            attempts = self.retry.max_attempts if self.retry else 1
            for attempt in range(attempts):
                if not self.faults.fires("transfer.fail", name, attempt):
                    break
                self.metrics.inc("faults.transfer.fail")
                if attempt + 1 >= attempts:
                    raise TransientError(
                        f"transfer {name!r} {src}->{dst} failed "
                        f"{attempts} attempt(s)") from InjectedFault(
                            "transfer.fail", name)
                self.metrics.inc("globus.retries")
                wasted += duration * (0.1 + 0.8 * hash_uniform(
                    self.faults.seed, "transfer.wasted", name, attempt))
        rec = TransferRecord(
            name=name, src=src, dst=dst, size_bytes=size_bytes,
            duration=wasted + duration)
        self.records.append(rec)
        self.metrics.inc("globus.transfers")
        self.metrics.inc("globus.bytes_out" if src == self.endpoint_a
                         else "globus.bytes_in", size_bytes)
        self.metrics.observe("globus.transfer_s", rec.duration)
        return rec

    # -- ledger ----------------------------------------------------------------

    def bytes_moved(self, src: str | None = None,
                    dst: str | None = None) -> int:
        """Total bytes transferred, optionally filtered by direction."""
        return sum(
            r.size_bytes for r in self.records
            if (src is None or r.src == src)
            and (dst is None or r.dst == dst))

    def total_transfer_time(self) -> float:
        """Sum of all transfer durations (serial execution model)."""
        return sum(r.duration for r in self.records)

    def summary(self) -> str:
        """Human-readable per-direction ledger."""
        a, b = self.endpoint_a, self.endpoint_b
        lines = [
            f"{a} -> {b}: {fmt_bytes(self.bytes_moved(src=a, dst=b))}",
            f"{b} -> {a}: {fmt_bytes(self.bytes_moved(src=b, dst=a))}",
            f"transfers: {len(self.records)}, "
            f"total time {self.total_transfer_time() / 3600:.2f}h",
        ]
        return "\n".join(lines)


#: Canonical artefact sizes of Table II (min/max of each daily range).
TABLE_II_SIZES: dict[str, tuple[int, int]] = {
    "traits_and_networks": (2 * TB, 2 * TB),  # one-time
    "daily_configurations": (100 * MB, int(8.7 * GB)),
    "raw_outputs": (20 * GB, int(3.5 * TB)),
    "summarized_outputs": (120 * MB, 70 * GB),
}
