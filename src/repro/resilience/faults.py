"""Deterministic, seedable fault injection for the *live* execution path.

The paper's pipeline ran nightly "for over 30 weeks without interruption"
(Section VII) — a claim about operations, not luck.  Reproducing that
robustness requires injecting the failures the production system tolerated
into the real runtime (worker processes, the blob store, the transfer
link, the run journal) and into the modelled cluster the night schedules
on.  A :class:`FaultPlan` is the injection surface: a picklable,
stateless recipe that every layer consults at its fault site, so one plan
can follow a spec across process boundaries and a retried operation
deterministically re-encounters (or escapes) its fault.

Fault sites
-----------

==================  =========================================================
site                where it fires
==================  =========================================================
``worker.crash``    pool worker dies hard (``os._exit``) before executing
``worker.exception``  pool worker raises a transient error before executing
``worker.slow``     pool worker sleeps ``delay_s`` before executing
``worker.crash_mid_run``  worker dies hard at simulation tick ``k``
                    (checkpoint/resume drills; requires ``tick=<k>``)
``cas.corrupt``     :meth:`repro.store.cas.ContentStore.put` publishes a
                    blob whose integrity digest does not match its payload
``transfer.fail``   :meth:`repro.cluster.globus.GlobusLink.transfer` attempt
                    fails (retried under the link's policy)
``ledger.torn``     :meth:`repro.store.ledger.RunLedger.append` writes a
                    truncated line (the record is lost, the file survives)
``node.fail``       :meth:`repro.cluster.slurm.SlurmSimulator.run` loses a
                    node under a running job, which is requeued (requires
                    ``mttf=<hours>``, the per-node mean time to failure)
==================  =========================================================

Determinism is the load-bearing property: whether a rule fires depends only
on ``(plan seed, site, operation key, attempt)`` through a keyed hash —
never on wall-clock, call order, or process identity.  That is what makes
the chaos-equivalence guarantee testable: a faulted run retries into the
same RNG streams as a clean run and produces bit-identical results.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

#: Every fault site a plan may target, with where it fires (the mapping
#: supports ``site in FAULT_SITES`` checks and the ``chaos sites`` listing).
FAULT_SITES: dict[str, str] = {
    "worker.crash": "pool worker dies hard (os._exit) before executing",
    "worker.exception": "worker raises a transient error before executing",
    "worker.slow": "worker sleeps delay_s before executing",
    "worker.crash_mid_run": "worker dies hard at simulation tick k mid-run",
    "cas.corrupt": "store publishes a blob whose digest does not match",
    "transfer.fail": "a Globus transfer attempt fails (retried)",
    "ledger.torn": "the ledger writes a truncated line (record lost)",
    "node.fail": "a modelled Slurm job loses a node and is requeued",
}

#: Exit code an injected ``worker.crash`` dies with (distinctive in logs).
CRASH_EXIT_CODE: int = 17


class InjectedFault(RuntimeError):
    """An error raised by an injected fault (picklable across workers).

    Attributes:
        site: the fault site that fired.
        detail: the operation key and attempt the fault hit.
    """

    def __init__(self, site: str, detail: str = "") -> None:
        super().__init__(site, detail)
        self.site = site
        self.detail = detail

    def __str__(self) -> str:
        return f"injected {self.site} ({self.detail})"


def hash_uniform(seed: int, *parts: object) -> float:
    """A deterministic uniform draw in [0, 1) keyed by ``parts``.

    Stateless by construction: the same (seed, parts) always yields the
    same value, in any process, regardless of how many other draws
    happened — the property that keeps fault plans reproducible across
    pool workers and retries.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "big") / 2.0**64


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One injection rule: where, how often, and against what.

    Attributes:
        site: one of :data:`FAULT_SITES`.
        probability: chance the rule fires per eligible operation (drawn
            deterministically from the plan seed; 1.0 = always).
        times: fire only on attempts ``< times`` of each operation (None =
            every attempt).  ``times=1`` is the canonical "fail once, then
            recover" rule.
        match: substring the operation key must contain ("" matches all).
        delay_s: for ``worker.slow``, how long the worker sleeps.
        tick: for ``worker.crash_mid_run``, the simulation tick the worker
            dies at (deterministic kill point inside the tick loop).
        mttf_h: for ``node.fail``, the per-node mean time to failure in
            hours (a job on ``n`` nodes fails at rate ``n / mttf_h``).
    """

    site: str
    probability: float = 1.0
    times: int | None = None
    match: str = ""
    delay_s: float = 0.0
    tick: int | None = None
    mttf_h: float | None = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r} "
                f"(one of {', '.join(FAULT_SITES)})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 (or None)")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if self.tick is not None and self.tick < 0:
            raise ValueError("tick must be non-negative (or None)")
        if self.site == "worker.crash_mid_run" and self.tick is None:
            raise ValueError("worker.crash_mid_run requires tick=<k>")
        if self.mttf_h is not None and not self.mttf_h > 0:
            raise ValueError("mttf must be positive (or None)")
        if self.site == "node.fail" and self.mttf_h is None:
            raise ValueError("node.fail requires mttf=<hours>")

    @classmethod
    def parse(cls, text: str) -> "FaultRule":
        """Parse a CLI rule spec: ``site[:k=v,...]``.

        Examples: ``worker.crash:times=1``, ``cas.corrupt:p=0.5``,
        ``worker.slow:delay=0.2,match=VT``, ``node.fail:mttf=500``.
        """
        site, _, rest = text.partition(":")
        kwargs: dict[str, object] = {}
        if rest:
            for item in rest.split(","):
                key, eq, val = item.partition("=")
                if not eq:
                    raise ValueError(f"bad fault option {item!r} "
                                     f"(expected k=v)")
                key = key.strip()
                if key in ("p", "probability"):
                    kwargs["probability"] = float(val)
                elif key == "times":
                    kwargs["times"] = int(val)
                elif key == "match":
                    kwargs["match"] = val
                elif key in ("delay", "delay_s"):
                    kwargs["delay_s"] = float(val)
                elif key == "tick":
                    kwargs["tick"] = int(val)
                elif key == "mttf":
                    kwargs["mttf_h"] = float(val)
                else:
                    raise ValueError(f"unknown fault option {key!r}")
        return cls(site=site.strip(), **kwargs)  # type: ignore[arg-type]

    def applies(self, key: str, attempt: int) -> bool:
        """Whether this rule is eligible for (key, attempt) before the
        probability draw."""
        if self.match and self.match not in key:
            return False
        if self.times is not None and attempt >= self.times:
            return False
        return True


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seeded set of fault rules, consulted at every fault site.

    The plan is frozen and carries no mutable state, so it pickles to pool
    workers and every consumer — parent, worker, retry — sees the same
    deterministic decisions.  An empty plan (no rules) never fires, which
    is what every layer defaults to in production.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, specs: list[str] | tuple[str, ...],
              seed: int = 0) -> "FaultPlan":
        """Build a plan from CLI rule specs (see :meth:`FaultRule.parse`)."""
        return cls(rules=tuple(FaultRule.parse(s) for s in specs), seed=seed)

    @classmethod
    def from_flags(cls, inject: list[str] | tuple[str, ...] | None,
                   seed: int = 0) -> "FaultPlan | None":
        """The plan ``--inject`` / ``--fault-seed`` name (None: no rules);
        a bad spec raises ``ValueError("bad --inject spec: …")``."""
        if not inject:
            return None
        try:
            return cls.parse(inject, seed=seed)
        except ValueError as exc:
            raise ValueError(f"bad --inject spec: {exc}") from None

    def active(self, site: str) -> bool:
        """Whether any rule targets ``site`` at all (cheap pre-check)."""
        return any(r.site == site for r in self.rules)

    def fires(self, site: str, key: str = "", attempt: int = 0) -> bool:
        """Whether the fault at ``site`` fires for (key, attempt)."""
        for rule in self.rules:
            if rule.site != site or not rule.applies(key, attempt):
                continue
            if rule.probability >= 1.0:
                return True
            if hash_uniform(self.seed, site, key, attempt) < rule.probability:
                return True
        return False

    def crash_tick(self, key: str = "", attempt: int = 0) -> int | None:
        """Tick a ``worker.crash_mid_run`` rule kills (key, attempt) at.

        Returns None when no rule fires — the common case, so the tick
        loop's per-tick check is one integer comparison.
        """
        for rule in self.rules:
            if (rule.site != "worker.crash_mid_run"
                    or not rule.applies(key, attempt)):
                continue
            if rule.probability >= 1.0 or hash_uniform(
                    self.seed, rule.site, key, attempt) < rule.probability:
                return rule.tick
        return None

    def node_failure_at(self, key: str, attempt: int, n_nodes: int,
                        runtime: float) -> float | None:
        """Seconds into attempt ``attempt`` of job ``key`` at which a node
        under it fails, or None when the job outlives the draw.

        A job on ``n_nodes`` nodes fails at rate ``n_nodes / MTTF`` (one
        lost node kills the whole MPI job), summed over the eligible
        ``node.fail`` rules; the exponential time to failure comes from
        the keyed hash, so a requeued attempt draws afresh and a replayed
        night draws the same.
        """
        rate = 0.0
        for rule in self.rules:
            if rule.site != "node.fail" or not rule.applies(key, attempt):
                continue
            if rule.probability >= 1.0 or hash_uniform(
                    self.seed, rule.site, key, attempt) < rule.probability:
                rate += n_nodes / (rule.mttf_h * 3600.0)
        if rate == 0.0:
            return None
        u = hash_uniform(self.seed, "node.fail.ttf", key, attempt)
        ttf = -math.log1p(-u) / rate
        return ttf if ttf < runtime else None

    def delay(self, site: str, key: str = "", attempt: int = 0) -> float:
        """Injected delay for ``site`` (0.0 when no slow rule fires)."""
        total = 0.0
        for rule in self.rules:
            if rule.site != site or not rule.applies(key, attempt):
                continue
            if rule.probability >= 1.0 or hash_uniform(
                    self.seed, site, key, attempt) < rule.probability:
                total += rule.delay_s
        return total

    def describe(self) -> str:
        """One-line human summary (the chaos CLI header)."""
        if not self.rules:
            return "no faults"
        parts = []
        for r in self.rules:
            bits = [r.site]
            if r.probability < 1.0:
                bits.append(f"p={r.probability:g}")
            if r.times is not None:
                bits.append(f"times={r.times}")
            if r.match:
                bits.append(f"match={r.match}")
            if r.delay_s:
                bits.append(f"delay={r.delay_s:g}s")
            if r.tick is not None:
                bits.append(f"tick={r.tick}")
            if r.mttf_h is not None:
                bits.append(f"mttf={r.mttf_h:g}")
            parts.append(":".join([bits[0], ",".join(bits[1:])])
                         if len(bits) > 1 else bits[0])
        return " ".join(parts) + f" (seed {self.seed})"
