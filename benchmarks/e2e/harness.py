"""Measurement plumbing shared by the workloads: the quartile-of-rounds
estimator, in-memory spans, host provenance and leak checks.

Nothing here imports ``repro`` — the estimator and the span arithmetic are
testable without the program under test.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = HERE / "out"  #: span dumps and result sets (gitignored)

#: Rounds discarded before timing so caches fill and lazy set-up finishes.
WARMUP_ROUNDS = 2
#: Timed rounds never fall below this, however slow the host is.
MIN_ROUNDS = 8
#: ... and never run away on a pathologically fast one.
MAX_ROUNDS = 400


# -- estimator -----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quiet_rate(ops_per_round: int, round_seconds: Sequence[float]) -> float:
    """Throughput from the quiet quartile of equal rounds.

    Interference on a shared host only ever *slows* a round, so the lower
    quartile of many equal rounds repeats run to run where the total wall
    does not (README "Estimator").
    """
    return ops_per_round / percentile(round_seconds, 25)


def iqr_over_median(values: Sequence[float]) -> float:
    return ((percentile(values, 75) - percentile(values, 25))
            / percentile(values, 50))


def host_clock() -> Callable[[], float]:
    """A fixed numpy kernel (~8 ms here when the host is quiet), timed
    between rounds: how fast is the host *right now*, independently of
    the program under test.  A diagnostic — nothing is normalised by it."""
    import numpy as np

    n = 1 << 16
    idx = (np.arange(n, dtype=np.int64) * 7919) % n
    v = np.linspace(0.0, 1.0, n)

    def tick() -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            y = v[idx]
            y *= 1.0001
            m = y > 0.5
            np.bincount(idx[m] & 1023, weights=y[m], minlength=1024)
        return time.perf_counter() - t0

    return tick


def timed_rounds(run_round: Callable, make_round: Callable[[int], object], *,
                 seconds: float, first_index: int,
                 min_rounds: int = MIN_ROUNDS) -> tuple[list[tuple], float]:
    """Run equal rounds back to back for ``seconds``.

    Inputs are generated outside the timed region.  Returns
    ``(round_seconds, inputs, outputs)`` per round, and the quiet quartile
    of the host-clock readings taken between the rounds, in ms.
    """
    rounds = []
    tick = host_clock()
    clock = [tick()]
    begin = time.perf_counter()
    while len(rounds) < MAX_ROUNDS and (
            len(rounds) < min_rounds
            or time.perf_counter() - begin < seconds):
        inputs = make_round(first_index + len(rounds))
        t0 = time.perf_counter()
        outputs = run_round(inputs)
        rounds.append((time.perf_counter() - t0, inputs, outputs))
        clock.append(tick())
    return rounds, percentile(clock, 25) * 1e3


# -- result sets -----------------------------------------------------------------


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives —
    the rule the acceptance driver applies across runs."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Run-to-run IQR as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def load_set(path: Path) -> dict[str, dict[str, list[float]]]:
    """One result set (what ``run.py --out`` appends to) as
    ``{workload: {metric: [value per run]}}``; failed-operation counts
    ride along under the pseudo-metric ``_failed``.  Traced runs are
    skipped: end-to-end numbers come from tracing-off runs only."""
    out: dict[str, dict[str, list[float]]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        if rec["trace"]:
            continue
        by_metric = out.setdefault(rec["workload"], {})
        for name, m in rec["metrics"].items():
            by_metric.setdefault(name, []).append(m["value"])
        by_metric.setdefault("_failed", []).append(rec["failed"])
    return out


# -- spans ---------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans: (name, start, end, parent index, round id)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.round_id = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.round_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: int = -1) -> None:
        """Record a span measured elsewhere (client threads)."""
        self.spans.append([name, start, end, parent, self.round_id])

    def self_times(self, round_id: int | None = None) -> dict[str, float]:
        """Self time per span name: duration minus what children cover."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent, rid) in enumerate(self.spans):
            if round_id is None or rid == round_id:
                out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p, _r in self.spans
                if n == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "round": rid}) + "\n")


# -- host ------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int) -> dict:
    """Host fingerprint, commit and load at start (warns when busy)."""
    import numpy

    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    try:
        st = os.statvfs("/dev/shm")
        shm_bytes = st.f_frsize * st.f_blocks
    except OSError:
        shm_bytes = None
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "dev_shm_bytes": shm_bytes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
        "loadavg_1m": load1,
        "busy_host_warning": load1 > nproc,
    }


# -- leak checks -----------------------------------------------------------------

_SHM_PREFIXES = ("repro-plane-", "psm_")


def _tree_state(root: Path) -> dict[str, tuple[int, int]]:
    if not root.is_dir():
        return {}
    out = {}
    for path in root.rglob("*"):
        try:
            st = path.stat()
        except OSError:
            continue
        out[str(path)] = (st.st_mtime_ns, st.st_size)
    return out


class LeakCheck:
    """Snapshot before, compare after: the run must leave no shared-memory
    segment, no lease file and nothing under ``~/.cache/repro``."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.cache_root = Path.home() / ".cache" / "repro"
        self.shm_before = self._shm()
        self.cache_before = _tree_state(self.cache_root)

    @staticmethod
    def _shm() -> set[str]:
        try:
            return {n for n in os.listdir("/dev/shm")
                    if n.startswith(_SHM_PREFIXES)}
        except OSError:
            return set()

    def leaks(self) -> list[str]:
        found = [f"/dev/shm/{n}" for n in sorted(self._shm()
                                                 - self.shm_before)]
        found += [str(p) for p in self.workdir.rglob("leases/*")
                  if p.is_file()]
        after = _tree_state(self.cache_root)
        found += [p for p, state in after.items()
                  if self.cache_before.get(p) != state
                  and not Path(p).is_dir()]
        return found
