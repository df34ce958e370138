"""``night_replicates`` — a calibration/prediction night.

Four regions x two cells x eight replicates per round: four 16-lane
``BatchedSimulation`` groups through ``run_instances_memoized`` with a
2-worker pool on a cold store, so every spec misses, executes, is written
to the CAS and journaled.  Then the whole timed set is resubmitted and
must come back bit-identical from the store.

The parent holds the region assets (a calibration driver does — it needs
the observed series), so the fork-context pool workers inherit them and a
round pays pool spawn, not asset rebuilds.
"""

from __future__ import annotations

import time

from harness import percentile
from repro.core.batching import batch_groups
from repro.core.parallel import supervise_instances
from repro.core.runner import execute_spec, execute_specs_batched
from repro.obs.registry import MetricsRegistry
from repro.store import ContentStore, RunLedger
from repro.store.keys import INSTANCE_NAMESPACE, instance_key
from repro.store.memo import outcome_payload, run_instances_memoized
from repro.surrogate.corpus import spec_record

from .base import (
    CELLS,
    WALK_ROUNDS,
    Walk,
    Workload,
    mismatches,
    p50_ms,
    registry_values,
    sim_seed,
    spec,
)

WORKERS = 2
REPLAY_PASSES = 6


class NightReplicates(Workload):
    name = "night_replicates"

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self.regions = ("VT", "WY") if smoke else ("VA", "CO", "KS", "VT")
        self.n_days = 10 if smoke else 100
        self.cells = CELLS[:2]
        self.replicates = 2 if smoke else 8
        self.ops_per_round = (len(self.regions) * len(self.cells)
                              * self.replicates)

    def _store(self, tag: str) -> tuple[ContentStore, RunLedger]:
        return (ContentStore(self.workdir / f"store-{tag}"),
                RunLedger(self.workdir / f"ledger-{tag}.jsonl"))

    def setup(self) -> None:
        super().setup()
        self.store, self.ledger = self._store("timed")
        instance_key(self.make_round(0)[0])  # the code-version salt

    def teardown(self) -> None:
        if hasattr(self, "ledger"):
            self.ledger.close()

    def make_round(self, index: int) -> list:
        out = []
        for region in self.regions:
            for c, cell in enumerate(self.cells):
                for rep in range(self.replicates):
                    out.append(spec(
                        region, cell, self.n_days,
                        sim_seed(self.seed, index, len(out)),
                        f"night{index}-{region}-c{c}-r{rep}"))
        return out

    def _memoized(self, specs, store, ledger, *, parallel=True, reg=None):
        return run_instances_memoized(
            specs, store=store, ledger=ledger, parallel=parallel,
            max_workers=WORKERS,
            registry=reg if reg is not None else self.registry)

    def run_round(self, specs: list) -> list:
        return self._memoized(specs, self.store, self.ledger)

    def replay(self, rounds, passes: int) -> tuple[list[float], list[str]]:
        """Resubmit every timed spec ``passes`` times to the warm store."""
        specs = [s for _w, inputs, _o in rounds for s in inputs]
        cold = [o for _w, _i, outputs in rounds for o in outputs]
        walls, bad = [], []
        for _ in range(passes):
            reg = MetricsRegistry()
            t0 = time.perf_counter()
            warm = self._memoized(specs, self.store, self.ledger, reg=reg)
            walls.append(time.perf_counter() - t0)
            bad += mismatches("replay vs cold", warm, cold)
            if reg.value("memo.hits") != len(specs):
                bad.append(f"replay: {reg.value('memo.hits')} hits for "
                           f"{len(specs)} specs")
        return walls, bad

    def check(self, rounds):
        """Replay is bit-identical to the cold outcomes and served wholly
        from the store; four batched lanes equal their solo runs."""
        _walls, bad = self.replay(rounds, 1)
        _wall, specs, outcomes = rounds[0]
        step = self.ops_per_round // len(self.regions)
        lanes = list(range(0, self.ops_per_round, step))
        bad += mismatches("batched lane vs solo execute_spec",
                          [outcomes[i] for i in lanes],
                          [execute_spec(specs[i], metrics=MetricsRegistry())
                           for i in lanes])
        return sum(len(i) for _w, i, _o in rounds) + len(lanes), bad

    def trace(self, rec, real):
        values = self.asset_probes(rec)
        n_real = len(real)
        reg = self.registry
        walk_reg = MetricsRegistry()
        store, ledger = self._store("walk")

        def walk_round(specs):
            with rec.span("store.keys.instance_key"):
                keys = [instance_key(s) for s in specs]
            with rec.span("store.cas.lookup"):
                for key in keys:
                    store.get(key)
            with rec.span("core.batching.group"):
                groups = batch_groups(specs)
            out = [None] * len(specs)
            for group in groups:
                with rec.span("epihiper.batch.run"):
                    pairs = execute_specs_batched(
                        [specs[i] for i in group], metrics=walk_reg)
                for i, (outcome, _dump) in zip(group, pairs):
                    with rec.span("store.memo.payload"):
                        payload = outcome_payload(outcome)
                    with rec.span("store.cas.put"):
                        store.put(keys[i], payload,
                                  family=INSTANCE_NAMESPACE)
                    with rec.span("store.ledger.append"):
                        ledger.instance_completed(
                            keys[i], label=specs[i].label,
                            spec=spec_record(specs[i]))
                    out[i] = outcome
            return out

        walked = real[:WALK_ROUNDS]
        walk = Walk(rec, walk_round, walked)
        bad = [m for (_w, _i, outs), got in zip(walked, walk.outputs)
               for m in mismatches("walk vs run_instances_memoized",
                                   got, outs)]
        # The walk is serial, so its overhead baseline is the serial
        # public call on the same specs and a third cold store.
        base_store, base_ledger = self._store("serial")
        baseline = []
        for _w, specs, _o in walked:
            t0 = time.perf_counter()
            self._memoized(specs, base_store, base_ledger, parallel=False,
                           reg=MetricsRegistry())
            baseline.append(time.perf_counter() - t0)
        base_ledger.close()
        ledger.close()

        keys = [instance_key(s) for s in walked[0][1]]
        gets = []
        for key in keys:
            t0 = time.perf_counter()
            store.get(key)
            gets.append(time.perf_counter() - t0)
        blob_bytes = [store.path_of(k).stat().st_size for k in keys]

        empty = [spec(s.region_code, s.params, 1, s.seed, s.label)
                 for s in walked[0][1]]
        fanout = []
        for _ in range(3):
            t0 = time.perf_counter()
            supervise_instances(empty, parallel=True, max_workers=WORKERS,
                                registry=MetricsRegistry())
            fanout.append(time.perf_counter() - t0)

        replay_walls, replay_bad = self.replay(real, REPLAY_PASSES)
        bad += replay_bad
        real_wall = sum(w for w, _i, _o in real)
        busy = sum(reg.value(n) for n in (
            "runner.simulate_s", "runner.batch_setup_s", "runner.assets_s"))
        groups = reg.value("batch.groups")
        n_specs = self.ops_per_round
        store_spans = ("store.keys.instance_key", "store.cas.lookup",
                       "store.memo.payload", "store.cas.put",
                       "store.ledger.append")
        values.update(registry_values(reg.value, n_real))
        values.update({
            "epihiper.engine.ticks": float(self.n_days * n_specs),
            "epihiper.batch.run_s": walk.per_round("epihiper.batch.run"),
            "epihiper.batch.setup_s":
                reg.value("runner.batch_setup_s") / n_real,
            "epihiper.batch.transmission_s":
                reg.value("batch.transmission_s") / n_real,
            "epihiper.batch.progression_s":
                reg.value("batch.progression_s") / n_real,
            "epihiper.batch.interventions_s":
                reg.value("batch.interventions_s") / n_real,
            "epihiper.batch.census_s":
                reg.value("batch.census_s") / n_real,
            "epihiper.batch.lanes_mean": n_specs * n_real / groups,
            "core.batching.group_us":
                walk.per_round("core.batching.group") * 1e6,
            "core.parallel.empty_fanout_ms": p50_ms(fanout),
            "core.parallel.pool_efficiency": busy / (WORKERS * real_wall),
            "store.keys.instance_key_us":
                walk.per_round("store.keys.instance_key") * 1e6 / n_specs,
            "store.cas.put_ms": p50_ms(rec.durations("store.cas.put")),
            "store.cas.get_ms": p50_ms(gets),
            "store.cas.bytes_per_result":
                sum(blob_bytes) / len(blob_bytes),
            "store.ledger.append_us":
                p50_ms(rec.durations("store.ledger.append")) * 1e3,
            "store.memo.overhead_s": walk.per_round(*store_spans),
            "store.replay_hits_per_s":
                n_specs * n_real / percentile(replay_walls, 25),
        })
        values.update(walk.summary(baseline))
        return values, bad


WORKLOAD = NightReplicates
