"""The benchmark's declared vocabulary: workloads, metrics, predictions.

``BENCHMARK.json`` at the repo root is generated from this module
(``python3 benchmarks/e2e/metricdefs.py --write``) and a test keeps the
two in step.  The contract fixes the JSON's keys, so what the JSON cannot
carry lives here: what each metric means, how it is measured, and — for
every per-layer metric — which end-to-end metric it should move on which
workload (choosing-metrics §3: written down *before* anyone measures).

Later issues cite numbers as ``workload/metric``.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: One measured run lasts this long (``--seconds``); see README "Budget".
RUN_SECONDS = 18

WORKLOADS: dict[str, str] = {
    "national_solo": (
        "17 single-region 120-day sims per round, serial, no store: the "
        "solo engine (K=1) does nearly all the work; bypasses batching, "
        "pool, store, checkpoint and service"),
    "night_replicates": (
        "4 regions x 2 cells x 8 replicates per round through the "
        "memoized pooled fan-out on a cold store: batched kernel, pool "
        "spawn and CAS/ledger writes dominate; replayed from the store"),
    "service_mix": (
        "2 closed-loop HTTP clients on a real `repro serve` subprocess, 6 "
        "never-seen + 14 Zipf-repeated scenarios per round: HTTP, queue, "
        "broker, memo reads and the server's interpreter lock dominate"),
    "preempted_resume": (
        "2 regions x 2 replicates per round, checkpoint every 10 ticks, "
        "crash at tick 75, resume from 70: the only workload where "
        "repro.checkpoint does most of the work"),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("scenarios_per_s", "1/s", "higher", 0.20,
             "scenario instances answered per second: ops per round / "
             "p25(round seconds) — sims on the three batch workloads, "
             "HTTP requests on service_mix"),
    EndToEnd("wait_ms", "ms", "lower", 0.25,
             "time a caller waits for one reply: p25 over rounds of the "
             "round's mean wait — the round itself on the three batch "
             "workloads (one call returns it whole), the mean over its "
             "requests of POST to terminal GET on service_mix"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "process start to ready (imports, asset builds, store open, "
             "server start + warm requests): median of 3 fresh processes"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05,
             "max of RUSAGE_SELF and RUSAGE_CHILDREN peak RSS, so pool "
             "workers and the server subprocess count"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    how: str  #: p = benchmark span, r = program registry, c = exact count,
    #: d = derived from the others
    moves: tuple[tuple[str, str], ...]  #: (workload, end-to-end metric)
    what: str = ""

    @property
    def layer(self) -> str:
        return self.name.rsplit(".", 1)[0]


_ALL = tuple(WORKLOADS)
_SOLO = (("national_solo", "scenarios_per_s"),)
_NIGHT = (("night_replicates", "scenarios_per_s"),)
_BATCH = _NIGHT + (("preempted_resume", "scenarios_per_s"),)
_STORE_W = _NIGHT + (("service_mix", "scenarios_per_s"),)
_STORE_R = (("service_mix", "wait_ms"),)
_CKPT = (("preempted_resume", "scenarios_per_s"),
         ("preempted_resume", "wait_ms"))
_SVC = (("service_mix", "scenarios_per_s"), ("service_mix", "wait_ms"))
_SETUP = tuple((w, "setup_s") for w in _ALL)
_DIAG = tuple((w, "scenarios_per_s") for w in _ALL)


def _pl(name, unit, better, how, moves, what=""):
    return PerLayer(name, unit, better, how, tuple(moves), what)


#: Per-round values unless the unit says otherwise: a span metric is the
#: layer's self time summed over one traced round (median across traced
#: rounds); a count is per round.  A layer a workload bypasses reads 0.
PER_LAYER: tuple[PerLayer, ...] = (
    # -- region assets: set-up on every workload ---------------------------
    _pl("synthpop.build_s", "s", "lower", "p", _SETUP,
        "build_region_network over the workload's regions"),
    _pl("surveillance.truth_s", "s", "lower", "p", _SETUP,
        "generate_region_truth over the workload's regions"),
    _pl("core.runner.assets_s", "s", "lower", "r", _SOLO + _NIGHT,
        "runner.assets_s inside rounds (0 once caches are warm)"),
    _pl("core.runner.asset_bytes", "B", "lower", "c",
        tuple((w, "peak_rss_mb") for w in _ALL),
        "exact bundle bytes of the workload's region assets"),
    # -- solo engine -------------------------------------------------------
    _pl("epihiper.engine.prepare_s", "s", "lower", "p", _SOLO,
        "prepare_instance"),
    _pl("epihiper.engine.run_s", "s", "lower", "p", _SOLO,
        "Simulation.run"),
    _pl("epihiper.engine.transmission_s", "s", "lower", "r", _SOLO),
    _pl("epihiper.engine.progression_s", "s", "lower", "r", _SOLO),
    _pl("epihiper.engine.interventions_s", "s", "lower", "r", _SOLO),
    _pl("epihiper.engine.ticks", "count", "lower", "c", _SOLO,
        "simulated days executed (re-executed ticks included)"),
    _pl("epihiper.engine.transitions", "count", "lower", "c", _SOLO),
    _pl("epihiper.engine.us_per_person_tick", "us", "lower", "d", _SOLO,
        "run_s / sum(persons x days)"),
    # -- batched kernel ----------------------------------------------------
    _pl("epihiper.batch.run_s", "s", "lower", "p", _BATCH,
        "execute_specs_batched (walk), step+finish spans on preempted"),
    _pl("epihiper.batch.setup_s", "s", "lower", "r", _BATCH,
        "runner.batch_setup_s"),
    _pl("epihiper.batch.transmission_s", "s", "lower", "r", _BATCH),
    _pl("epihiper.batch.progression_s", "s", "lower", "r", _BATCH),
    _pl("epihiper.batch.interventions_s", "s", "lower", "r", _BATCH),
    _pl("epihiper.batch.census_s", "s", "lower", "r", _BATCH),
    _pl("epihiper.batch.groups", "count", "lower", "c", _BATCH),
    _pl("epihiper.batch.lanes_mean", "count", "higher", "c", _BATCH),
    _pl("core.batching.group_us", "us", "lower", "p", _BATCH,
        "batch_groups over one round's specs"),
    # -- fan-out -----------------------------------------------------------
    _pl("core.parallel.empty_fanout_ms", "ms", "lower", "p", _NIGHT,
        "supervise_instances over 1-day specs: spawn + pickle + merge"),
    _pl("core.parallel.pool_efficiency", "ratio", "higher", "d", _NIGHT,
        "worker busy seconds / (workers x round wall)"),
    _pl("resilience.supervisor.attempts", "count", "lower", "c",
        _NIGHT + _CKPT),
    _pl("resilience.supervisor.retries", "count", "lower", "c", _CKPT),
    _pl("resilience.supervisor.pool_rebuilds", "count", "lower", "c",
        _NIGHT),
    # -- store -------------------------------------------------------------
    _pl("store.keys.instance_key_us", "us", "lower", "p",
        _STORE_W + _STORE_R, "per spec"),
    _pl("store.cas.put_ms", "ms", "lower", "p", _STORE_W,
        "p50 per result blob"),
    _pl("store.cas.get_ms", "ms", "lower", "p", _STORE_R,
        "p50 per result blob"),
    _pl("store.cas.bytes_per_result", "B", "lower", "c", _STORE_W),
    _pl("store.ledger.append_us", "us", "lower", "p", _STORE_W,
        "per instance_completed event"),
    _pl("store.memo.batch_s", "s", "lower", "r", _NIGHT),
    _pl("store.memo.overhead_s", "s", "lower", "d", _NIGHT,
        "self time of the key/get/payload/put/ledger spans in one walk"),
    _pl("store.memo.hits", "count", "higher", "c", _STORE_R),
    _pl("store.memo.misses", "count", "lower", "c", _STORE_W),
    _pl("store.replay_hits_per_s", "1/s", "higher", "p", _STORE_R,
        "the timed set resubmitted to a warm store: hits / p25(pass s)"),
    # -- checkpoint --------------------------------------------------------
    _pl("checkpoint.snapshot_ms", "ms", "lower", "p", _CKPT,
        "p50 per save_state call (all lanes of a group)"),
    _pl("checkpoint.write_ms", "ms", "lower", "p", _CKPT,
        "p50 per CheckpointManager.write"),
    _pl("checkpoint.load_ms", "ms", "lower", "p", _CKPT,
        "p50 per snapshot blob read on resume"),
    _pl("checkpoint.restore_ms", "ms", "lower", "p", _CKPT,
        "p50 per restore_state call"),
    _pl("checkpoint.bytes_per_snapshot", "B", "lower", "c", _CKPT),
    _pl("checkpoint.written", "count", "lower", "c", _CKPT,
        "snapshot blobs on disk per round (the registry undercounts)"),
    _pl("checkpoint.resumed", "count", "higher", "c", _CKPT),
    _pl("checkpoint.ticks_saved", "count", "higher", "c", _CKPT),
    _pl("checkpoint.ticks_reexecuted", "count", "lower", "c", _CKPT),
    _pl("checkpoint.time_share", "ratio", "lower", "d", _CKPT,
        "(snapshot+write+load+restore self time) / walked round wall"),
    # -- service -----------------------------------------------------------
    _pl("service.client.submit_ms", "ms", "lower", "p", _SVC, "p50 POST"),
    _pl("service.client.poll_ms", "ms", "lower", "p", _SVC, "p50 GET"),
    _pl("service.client.polls_per_request", "count", "lower", "c", _SVC),
    _pl("service.client.exec_p50_ms", "ms", "lower", "p", _SVC,
        "first-time scenarios, POST to terminal GET"),
    _pl("service.client.exec_p90_ms", "ms", "lower", "p", _SVC),
    _pl("service.client.hit_p50_ms", "ms", "lower", "p", _SVC,
        "repeat scenarios"),
    _pl("service.api.healthz_ms", "ms", "lower", "p", _SVC,
        "p50 bare HTTP + routing"),
    _pl("service.queue.wait_s", "s", "lower", "r", _SVC),
    _pl("service.broker.batch_s", "s", "lower", "r", _SVC),
    _pl("service.runner.simulate_s", "s", "lower", "r", _SVC),
    _pl("service.broker.batch_effective", "count", "higher", "r", _SVC,
        "last claimed batch size (gauge)"),
    _pl("service.queue.admitted", "count", "lower", "c", _SVC),
    _pl("service.queue.coalesced", "count", "higher", "c", _SVC),
    _pl("service.overhead_share", "ratio", "lower", "d", _SVC,
        "1 - runner.simulate_s / service.batch_s"),
    # -- per-workload diagnostics -----------------------------------------
    _pl("round.iqr_over_median", "ratio", "lower", "d", _DIAG,
        "spread of the untraced round walls"),
    _pl("round.wall_rate", "1/s", "higher", "d", _DIAG,
        "ops / total wall of the untraced rounds (not the headline)"),
    _pl("trace.residual_share", "ratio", "lower", "d", _DIAG,
        "walked round wall not covered by any layer span"),
    _pl("trace.overhead_pct", "%", "lower", "d", _DIAG,
        "walked-and-traced round vs the untraced serial public call"),
)


def benchmark_json() -> dict:
    """The contract's ``BENCHMARK.json`` for this vocabulary."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def main(argv: list[str]) -> int:
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if "--write" in argv:
        root = Path(__file__).resolve().parents[2]
        (root / "BENCHMARK.json").write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
