"""What the four workloads share: the interface the runner drives, the
fixed scenario cells, seed derivation and outcome comparison."""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from harness import SpanRecorder, percentile
from repro.core.parallel import InstanceOutcome, InstanceSpec
from repro.obs.registry import MetricsRegistry
from repro.core.runner import confirmed_series, load_region_assets
from repro.params import DEFAULT_SEED
from repro.plane.bundle import bundle_nbytes
from repro.surveillance.truth import generate_region_truth
from repro.synthpop.contacts import build_region_network

SCALE = 1e-3
ASSET_SEED = DEFAULT_SEED
TRUTH_DAYS = 210  #: what ``load_region_assets`` builds by default

#: Scenario cells are constants, not drawn from the workload seed: the
#: seed varies every simulation's RNG stream but never the amount of work
#: a round stands for, so throughput is comparable across seeds.
CELLS: tuple[dict, ...] = (
    {"TAU": 0.16, "SYMP": 0.65, "SH_COMPLIANCE": 0.5, "VHI_COMPLIANCE": 0.4},
    {"TAU": 0.18, "SYMP": 0.60, "SH_COMPLIANCE": 0.6, "VHI_COMPLIANCE": 0.5},
    {"TAU": 0.20, "SYMP": 0.70, "SH_COMPLIANCE": 0.7, "VHI_COMPLIANCE": 0.4},
    {"TAU": 0.22, "SYMP": 0.65, "SH_COMPLIANCE": 0.8, "VHI_COMPLIANCE": 0.5},
)


def sim_seed(workload_seed: int, round_index: int, position: int) -> int:
    """A simulation seed unique per (run seed, round, position)."""
    return workload_seed * 1_000_003 + round_index * 1_009 + position


def same_outcome(a: InstanceOutcome | None, b: InstanceOutcome | None) -> bool:
    """Bit-identity of the three stored fields."""
    return (a is not None and b is not None
            and np.array_equal(a.confirmed, b.confirmed)
            and a.attack_rate == b.attack_rate
            and a.transitions == b.transitions)


def mismatches(label: str, got: list, want: list) -> list[str]:
    """One message per position where ``got`` is not bit-identical."""
    out = [f"{label}: {w.spec.label or i} differs"
           for i, (g, w) in enumerate(zip(got, want))
           if not same_outcome(g, w)]
    if len(got) != len(want):
        out.append(f"{label}: {len(got)} results for {len(want)} specs")
    return out


def outcome_of(s: InstanceSpec, result, model) -> InstanceOutcome:
    """The runner's reduction of one finished simulation."""
    return InstanceOutcome(
        spec=s, confirmed=confirmed_series(result, model, s.n_days),
        attack_rate=result.attack_rate(model), transitions=result.log.size)


#: The (r) metrics every workload reads the same way: per-layer name ->
#: the name the program reports it under (``MetricsRegistry`` handed in,
#: or ``/v1/metrics``).
REGISTRY_NAMES: dict[str, str] = {
    "core.runner.assets_s": "runner.assets_s",
    "epihiper.engine.transmission_s": "engine.transmission_s",
    "epihiper.engine.progression_s": "engine.progression_s",
    "epihiper.engine.interventions_s": "engine.interventions_s",
    "epihiper.engine.transitions": "engine.transitions",
    "epihiper.batch.groups": "batch.groups",
    "resilience.supervisor.attempts": "retry.attempts",
    "resilience.supervisor.retries": "retry.retries",
    "resilience.supervisor.pool_rebuilds": "retry.pool_rebuilds",
    "store.memo.batch_s": "memo.batch_s",
    "store.memo.hits": "memo.hits",
    "store.memo.misses": "memo.misses",
    "checkpoint.written": "checkpoint.written",
    "checkpoint.resumed": "checkpoint.resumed",
    "checkpoint.ticks_saved": "checkpoint.ticks_saved",
}


def registry_values(read, n_rounds: int) -> dict[str, float]:
    """Per-round (r) metrics; ``read(name)`` totals over ``n_rounds``."""
    return {metric: read(name) / n_rounds
            for metric, name in REGISTRY_NAMES.items()}


def p50_ms(seconds: list[float]) -> float:
    return percentile(seconds, 50) * 1e3 if seconds else 0.0


class Workload:
    """One workload: equal rounds over inputs generated from the seed.

    The program under test only ever sees what :meth:`make_round`
    returns — never the workload seed itself.
    """

    name = ""
    ops_per_round = 0
    regions: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.reset_registry()

    def reset_registry(self) -> None:
        """A fresh registry for the program to report into."""
        self.registry = MetricsRegistry()

    # -- lifecycle ---------------------------------------------------------
    def setup(self) -> None:
        """Cold set-up: everything between imports and the first round."""
        for region in self.regions:
            load_region_assets(region, SCALE, ASSET_SEED)

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""

    # -- rounds --------------------------------------------------------------
    def make_round(self, index: int):
        raise NotImplementedError

    def run_round(self, inputs):
        raise NotImplementedError

    def failed_ops(self, outputs) -> int:
        """Operations of one round that failed or were refused."""
        return sum(1 for o in outputs if o is None)

    def round_wait_s(self, wall: float, outputs) -> float:
        """Mean time a caller waited for one reply in this round: the one
        call returns the whole round, so by default the round itself."""
        return wall

    # -- outside the timed region ---------------------------------------------
    def check(self, rounds: list[tuple]) -> tuple[int, list[str]]:
        """(operations checked, mismatch messages)."""
        raise NotImplementedError

    def trace(self, rec: SpanRecorder,
              real: list[tuple]) -> tuple[dict[str, float], list[str]]:
        """Walk the untraced ``real`` rounds' inputs again, layer by
        layer under spans; returns per-layer metric values (per round)
        and a message per walked outcome that differs from ``real``."""
        raise NotImplementedError

    # -- shared probes ---------------------------------------------------------
    def asset_probes(self, rec: SpanRecorder) -> dict[str, float]:
        """Direct calls into the asset layers on this workload's regions."""
        nbytes = 0
        for region in self.regions:
            with rec.span("synthpop.build"):
                build_region_network(region, scale=SCALE, seed=ASSET_SEED)
            with rec.span("surveillance.truth"):
                generate_region_truth(region, n_days=TRUTH_DAYS,
                                      seed=ASSET_SEED)
            nbytes += bundle_nbytes(
                load_region_assets(region, SCALE, ASSET_SEED))
        return {
            "synthpop.build_s": sum(rec.durations("synthpop.build")),
            "surveillance.truth_s": sum(rec.durations("surveillance.truth")),
            "core.runner.asset_bytes": float(nbytes),
        }


def spec(region: str, cell: dict, n_days: int, seed: int,
         label: str) -> InstanceSpec:
    return InstanceSpec(region, dict(cell), n_days, SCALE, seed, label,
                        ASSET_SEED)


#: Walked (traced) rounds per trace run: enough for a median, few enough
#: that the serial walk of a pooled workload fits the run's time budget.
WALK_ROUNDS = 4


class Walk:
    """Rounds re-run layer by layer under spans, one round id each."""

    def __init__(self, rec: SpanRecorder, walk_round, rounds: list[tuple]):
        self.walls: list[float] = []
        self.outputs: list = []
        for rid, (_wall, inputs, _outputs) in enumerate(rounds):
            rec.round_id = rid
            t0 = time.perf_counter()
            self.outputs.append(walk_round(inputs))
            self.walls.append(time.perf_counter() - t0)
        rec.round_id = -1
        self.self_times = [rec.self_times(rid)
                           for rid in range(len(self.walls))]

    def per_round(self, *names: str) -> float:
        """Median over walked rounds of the named spans' self time."""
        return percentile([sum(st.get(n, 0.0) for n in names)
                           for st in self.self_times], 50)

    def summary(self, baseline_walls: list[float]) -> dict[str, float]:
        """``trace.*`` against the untraced serial public call (quiet
        quartile on both sides, like every other timing here)."""
        covered = sum(sum(st.values()) for st in self.self_times)
        base = percentile(baseline_walls, 25)
        return {
            "trace.residual_share":
                max(0.0, 1.0 - covered / sum(self.walls)),
            "trace.overhead_pct":
                100.0 * (percentile(self.walls, 25) - base) / base,
        }
