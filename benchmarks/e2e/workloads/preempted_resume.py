"""``preempted_resume`` — a night on a preemptible queue.

Two regions x two replicates per round under ``supervise_instances`` with
a checkpoint every 10 ticks and a ``worker.crash_mid_run`` fault at tick
75: every group snapshots seven times, dies once, resumes from tick 70
and re-executes five ticks.  Serial, so the crash is an in-process
``InjectedFault`` and the retry runs in the same process.
"""

from __future__ import annotations

from harness import percentile
from repro.checkpoint import CheckpointPlan
from repro.checkpoint.manager import checkpoint_blob_key
from repro.core.batching import batch_groups
from repro.core.parallel import run_instances, supervise_instances
from repro.core.runner import load_region_assets, prepare_instance
from repro.epihiper.batch import BatchedSimulation
from repro.obs.registry import MetricsRegistry
from repro.resilience import FaultPlan, RetryPolicy
from repro.store.keys import instance_key

from .base import (
    CELLS,
    WALK_ROUNDS,
    Walk,
    Workload,
    mismatches,
    outcome_of,
    p50_ms,
    registry_values,
    sim_seed,
    spec,
)

EVERY = 10
CRASH_TICK = 75
CHECKED_ROUNDS = 4


class PreemptedResume(Workload):
    name = "preempted_resume"

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self.regions = ("VT", "WY") if smoke else ("VA", "KS")
        self.n_days = 20 if smoke else 100
        self.every = 5 if smoke else EVERY
        self.crash_tick = 12 if smoke else CRASH_TICK
        self.replicates = 2
        self.ops_per_round = len(self.regions) * self.replicates

    def _plan(self, tag: str) -> CheckpointPlan:
        return CheckpointPlan(store_root=str(self.workdir / f"ck-{tag}"),
                              every=self.every)

    def setup(self) -> None:
        super().setup()
        self.plan = self._plan("timed")
        instance_key(self.make_round(0)[0][0])  # the code-version salt

    def make_round(self, index: int) -> tuple[list, FaultPlan]:
        specs = [spec(region, CELLS[1], self.n_days,
                      sim_seed(self.seed, index, j * self.replicates + rep),
                      f"pre{index}-{region}-r{rep}")
                 for j, region in enumerate(self.regions)
                 for rep in range(self.replicates)]
        faults = FaultPlan.parse(
            [f"worker.crash_mid_run:tick={self.crash_tick},times=1"],
            seed=index)
        return specs, faults

    def run_round(self, inputs):
        """Returns the ``FanoutResult`` (outcomes plus the resume report)."""
        specs, faults = inputs
        return supervise_instances(
            specs, parallel=False, registry=self.registry, faults=faults,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0, jitter=0),
            checkpoint=self.plan)

    def failed_ops(self, res) -> int:
        return super().failed_ops(res.results)

    def check(self, rounds):
        """Crashed-and-resumed outcomes are bit-identical to an
        uninterrupted plain run, and every group really did resume."""
        bad, checked = [], 0
        resumed_from = self.crash_tick // self.every * self.every
        for _wall, (specs, _faults), res in rounds[:CHECKED_ROUNDS]:
            plain = run_instances(specs, parallel=False,
                                  registry=MetricsRegistry())
            bad += mismatches("resumed vs uninterrupted", res.results, plain)
            checked += len(specs)
            if (res.retries != len(self.regions)
                    or res.ticks_saved != resumed_from * len(specs)):
                bad.append(f"resume did not happen as planned: "
                           f"{res.summary()}")
        return checked, bad

    def trace(self, rec, real):
        values = self.asset_probes(rec)
        n_real = len(real)
        reg = self.registry
        walk_reg = MetricsRegistry()
        manager = self._plan("walk").manager(metrics=walk_reg)
        steps = 0

        def build(specs):
            lanes = [prepare_instance(
                load_region_assets(s.region_code, s.scale, s.asset_seed),
                s.params, seed=s.seed) for s in specs]
            batch = BatchedSimulation([sim for sim, _m in lanes],
                                      metrics=walk_reg)
            batch.begin()
            return lanes, batch

        def walk_group(specs):
            """The checkpointed group loop, through public calls only."""
            nonlocal steps
            keys = [instance_key(s) for s in specs]
            with rec.span("epihiper.batch.setup"):
                lanes, batch = build(specs)
            tick, since_flush, crashed = 0, 0, False
            while tick < self.n_days:
                if tick == self.crash_tick and not crashed:
                    crashed = True  # the worker dies; a retry starts over
                    with rec.span("epihiper.batch.setup"):
                        lanes, batch = build(specs)
                    latest = manager.latest_tick(keys[0])
                    with rec.span("checkpoint.load"):
                        payloads = [manager.store.get(
                            checkpoint_blob_key(k, latest)) for k in keys]
                    with rec.span("checkpoint.restore"):
                        tick = batch.restore_state(payloads)
                    for k in keys:
                        manager.resumed(k, tick, attempt=1)
                    since_flush = 0
                    continue
                with rec.span("epihiper.batch.step"):
                    batch.step()
                steps += len(specs)
                tick += 1
                since_flush += 1
                if tick < self.n_days and tick % self.every == 0:
                    with rec.span("checkpoint.snapshot"):
                        snaps = batch.save_state(
                            ticks_since_flush=since_flush)
                    since_flush = 0
                    for k, snap in zip(keys, snaps):
                        with rec.span("checkpoint.write"):
                            manager.write(k, snap, tick=tick)
            with rec.span("epihiper.batch.finish"):
                batch.flush(since_flush)
                results = batch.finish()
            with rec.span("core.runner.reduce"):
                return [outcome_of(s, r, model)
                        for s, (_sim, model), r in zip(specs, lanes, results)]

        def walk_round(inputs):
            specs, _faults = inputs
            with rec.span("core.batching.group"):
                groups = batch_groups(specs)
            out = [None] * len(specs)
            for group in groups:
                for i, o in zip(group, walk_group([specs[i] for i in group])):
                    out[i] = o
            return out

        walked = real[:WALK_ROUNDS]
        walk = Walk(rec, walk_round, walked)
        bad = [m for (_w, _i, res), got in zip(walked, walk.outputs)
               for m in mismatches("walk vs supervise_instances", got,
                                   res.results)]
        n_walk = len(walk.walls)
        n_specs = self.ops_per_round
        written = walk_reg.value("checkpoint.written") / n_walk
        ck_spans = ("checkpoint.snapshot", "checkpoint.write",
                    "checkpoint.load", "checkpoint.restore")
        values.update(registry_values(reg.value, n_real))
        values.update({
            "epihiper.engine.ticks": steps / n_walk,
            "epihiper.batch.run_s": walk.per_round(
                "epihiper.batch.step", "epihiper.batch.finish"),
            "epihiper.batch.setup_s": walk.per_round("epihiper.batch.setup"),
            "epihiper.batch.transmission_s":
                walk_reg.value("batch.transmission_s") / n_walk,
            "epihiper.batch.progression_s":
                walk_reg.value("batch.progression_s") / n_walk,
            "epihiper.batch.interventions_s":
                walk_reg.value("batch.interventions_s") / n_walk,
            "epihiper.batch.census_s":
                walk_reg.value("batch.census_s") / n_walk,
            "epihiper.batch.lanes_mean":
                n_specs * n_real / reg.value("batch.groups"),
            "core.batching.group_us":
                walk.per_round("core.batching.group") * 1e6,
            "checkpoint.snapshot_ms":
                p50_ms(rec.durations("checkpoint.snapshot")),
            "checkpoint.write_ms": p50_ms(rec.durations("checkpoint.write")),
            "checkpoint.load_ms":
                p50_ms(rec.durations("checkpoint.load")) / self.replicates,
            "checkpoint.restore_ms":
                p50_ms(rec.durations("checkpoint.restore")),
            "checkpoint.bytes_per_snapshot":
                walk_reg.value("checkpoint.bytes")
                / walk_reg.value("checkpoint.written"),
            "checkpoint.written": written,
            "checkpoint.ticks_reexecuted":
                steps / n_walk - self.n_days * n_specs,
            "checkpoint.time_share":
                walk.per_round(*ck_spans) / percentile(walk.walls, 50),
        })
        values.update(walk.summary([w for w, _i, _o in real]))
        return values, bad


WORKLOAD = PreemptedResume
