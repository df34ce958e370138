"""``national_solo`` — a planner's national what-if.

Seventeen regions (every third by descending population, CA first, so the
runtime-vs-size spread of Fig. 7 is present), one spec per region per
round: ``batch_groups`` yields singletons and every instance takes the
solo ``epihiper.engine.Simulation`` path.  Serial, no store, no
checkpoint — the bypass workload for every non-engine optimisation.
"""

from __future__ import annotations

import os

from repro.core.batching import batch_groups
from repro.core.parallel import run_instances
from repro.core.runner import (
    load_region_assets,
    prepare_instance,
    run_instance,
)
from repro.obs.registry import MetricsRegistry
from repro.synthpop.regions import BY_POPULATION

from .base import (
    ASSET_SEED,
    CELLS,
    SCALE,
    WALK_ROUNDS,
    Walk,
    Workload,
    mismatches,
    outcome_of,
    registry_values,
    sim_seed,
    spec,
)


class NationalSolo(Workload):
    name = "national_solo"

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        codes = list(reversed(BY_POPULATION))[::3]
        self.regions = tuple(codes[-3:] if smoke else codes)
        self.n_days = 10 if smoke else 120
        self.ops_per_round = len(self.regions)

    def setup(self) -> None:
        # The one REPRO_* knob any workload sets.  The per-process asset
        # LRU holds 4 bundles by default; cycling 17 regions through it
        # rebuilds every bundle every round (measured: 2.0 s of a 2.4 s
        # round), which would make this a synthpop benchmark.  A national
        # sweep sizes the LRU to its region count, as the knob's own
        # documentation recommends.
        os.environ["REPRO_MAX_PRELOAD_ASSETS"] = str(len(self.regions))
        super().setup()

    def make_round(self, index: int) -> list:
        return [spec(region, CELLS[j % len(CELLS)], self.n_days,
                     sim_seed(self.seed, index, j), f"solo{index}-{region}")
                for j, region in enumerate(self.regions)]

    def run_round(self, specs: list) -> list:
        return run_instances(specs, parallel=False, registry=self.registry)

    def _direct(self, s):
        assets = load_region_assets(s.region_code, s.scale, s.asset_seed)
        result, model = run_instance(assets, s.params, n_days=s.n_days,
                                     seed=s.seed)
        return outcome_of(s, result, model)

    def check(self, rounds):
        """A sample round equals direct ``run_instance`` calls."""
        _wall, specs, outcomes = rounds[0]
        want = [self._direct(s) for s in specs]
        return len(specs), mismatches("run_instances vs run_instance",
                                      outcomes, want)

    def trace(self, rec, real):
        values = self.asset_probes(rec)
        walk_reg = MetricsRegistry()
        persons_days = 0

        def walk_round(specs):
            nonlocal persons_days
            with rec.span("core.batching.group"):
                batch_groups(specs)
            out = []
            for s in specs:
                with rec.span("core.runner.assets"):
                    assets = load_region_assets(
                        s.region_code, s.scale, s.asset_seed,
                        metrics=walk_reg)
                with rec.span("epihiper.engine.prepare"):
                    sim, model = prepare_instance(assets, s.params,
                                                  seed=s.seed)
                with rec.span("epihiper.engine.run"):
                    result = sim.run(s.n_days)
                with rec.span("core.runner.reduce"):
                    out.append(outcome_of(s, result, model))
                persons_days += assets.pop.size * s.n_days
            return out

        walk = Walk(rec, walk_round, real[:WALK_ROUNDS])
        bad = [m for (_w, _i, outs), got in zip(real, walk.outputs)
               for m in mismatches("walk vs run_instances", got, outs)]
        run_s = walk.per_round("epihiper.engine.run")
        values.update(registry_values(self.registry.value, len(real)))
        values.update({
            "epihiper.engine.prepare_s":
                walk.per_round("epihiper.engine.prepare"),
            "epihiper.engine.run_s": run_s,
            "epihiper.engine.ticks":
                float(self.n_days * self.ops_per_round),
            "epihiper.engine.us_per_person_tick":
                run_s * 1e6 / (persons_days / len(walk.walls)),
            "core.batching.group_us":
                walk.per_round("core.batching.group") * 1e6,
        })
        values.update(walk.summary([w for w, _i, _o in real]))
        return values, bad


WORKLOAD = NationalSolo
