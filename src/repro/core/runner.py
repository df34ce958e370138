"""Shared simulation-instance runner for the workflows.

Translates a design cell's parameters into an EpiHiper configuration — the
"model configurations specify which populations and contact networks to use,
as well as the disease parameters, interventions, initializations, and the
number of days to simulate" (Section III) — and runs it at the configured
scale.  Region inputs (population, network, surveillance) are cached per
(region, scale, seed), mirroring the one-time synthetic-data preparation.

Recognised cell parameters (all optional):

- ``TAU`` — disease transmissibility (model transmissibility).
- ``SYMP`` — symptomatic fraction.
- ``SH_COMPLIANCE`` / ``sh_compliance`` — stay-at-home compliance.
- ``VHI_COMPLIANCE`` / ``vhi_compliance`` — voluntary-home-isolation
  compliance.
- ``lockdown_days`` — SH duration (end = start + days).
- ``reopen_level`` — partial reopening level after SH ends.
- ``tracing_compliance`` — distance-1 contact tracing compliance.

These are :data:`PARAM_NAMES`: the service refuses any other name at
admission, and a spec built in process carries (and keys) it but nothing
reads it.  Which transmission kernel a tick runs is the engine's choice,
not a parameter.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from ..analytics.aggregate import state_cumulative_curve, summarize
from ..epihiper.covid import SYMPT, build_covid_model_with_symp_fraction
from ..epihiper.engine import Simulation, SimulationResult
from ..epihiper.initialization import initialize_from_surveillance
from ..epihiper.npi import make_d1ct, make_ro, make_sc, make_sh, make_vhi
from ..params import DEFAULT_SCALE, DEFAULT_SEED
from ..plane.bundle import AssetKey, bundle_nbytes, narrow_ids
from ..surveillance.truth import GroundTruth, generate_region_truth
from ..synthpop.contacts import ContactNetwork, build_region_network
from ..synthpop.persons import Population

#: The cell parameter names the runner reads, as listed above.
PARAM_NAMES: tuple[str, ...] = (
    "TAU", "SYMP", "SH_COMPLIANCE", "sh_compliance", "VHI_COMPLIANCE",
    "vhi_compliance", "lockdown_days", "reopen_level", "tracing_compliance",
)

#: Default intervention timing (simulation days).
SC_START: int = 15
SH_START: int = 20
SH_DEFAULT_DAYS: int = 60

#: Fraction of symptomatic cases that surface as confirmed cases.
ASCERTAINMENT: float = 0.25


@dataclass(frozen=True, slots=True)
class RegionAssets:
    """Cached per-region inputs: population, network, surveillance."""

    pop: Population
    net: ContactNetwork
    truth: GroundTruth
    scale: float


#: Byte budget of the per-process asset cache, in ``bundle_nbytes``: all
#: 51 regions at scale 1e-3 total 47.8 MB and VA at 1e-2 is 10.1 MB, so a
#: national sweep stays resident 5.6 times over, or ~24 of the largest
#: 1:100 bundles.  A constant on purpose — there is no number to guess.
ASSET_CACHE_BYTES: int = 256 * 2**20


class _AssetCache:
    """Per-process LRU of asset bundles, bounded by resident bytes.

    Every entry is charged :func:`~repro.plane.bundle.bundle_nbytes` —
    bundles mapped from the store and private builds alike — and
    inserting evicts least-recently-used entries until the total fits
    :data:`ASSET_CACHE_BYTES`.  The entry just inserted is never dropped,
    so a single bundle larger than the whole budget still runs.
    Publishes ``assets.cache.hits`` / ``misses`` / ``evictions`` and the
    ``assets.cache.bytes`` gauge.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[AssetKey, RegionAssets] = OrderedDict()

    def get(self, key: AssetKey, reg) -> RegionAssets | None:
        assets = self._entries.get(key)
        if assets is None:
            reg.inc("assets.cache.misses")
            return None
        self._entries.move_to_end(key)
        reg.inc("assets.cache.hits")
        return assets

    def put(self, key: AssetKey, assets: RegionAssets, reg) -> None:
        self._entries[key] = assets
        self._entries.move_to_end(key)
        # Sizes are recomputed (~15 us each), not stored: an insert is
        # already a miss that cost a build or an attach.
        total = sum(bundle_nbytes(a) for a in self._entries.values())
        while total > ASSET_CACHE_BYTES and len(self._entries) > 1:
            _key, dropped = self._entries.popitem(last=False)
            total -= bundle_nbytes(dropped)
            reg.inc("assets.cache.evictions")
        reg.gauge("assets.cache.bytes", total)

    def clear(self) -> None:
        self._entries.clear()

    def keys(self) -> frozenset[AssetKey]:
        return frozenset(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


_ASSET_CACHE = _AssetCache()


def _build_assets(key: AssetKey) -> RegionAssets:
    """Build one region's inputs from scratch, with the narrowed network
    (int32 person ids) a store bundle carries."""
    pop, net = build_region_network(key.region_code, scale=key.scale,
                                    seed=key.seed)
    truth = generate_region_truth(key.region_code, n_days=key.truth_days,
                                  seed=key.seed)
    return RegionAssets(pop=pop, net=narrow_ids(net), truth=truth,
                        scale=key.scale)


def _timed_build(key: AssetKey, reg) -> RegionAssets:
    with reg.timer("assets.build_s"):
        assets = _build_assets(key)
    reg.inc("assets.cache.builds")
    return assets


def _stored_assets(key: AssetKey, store, reg) -> RegionAssets:
    """``key``'s bundle mapped from ``store``, built there at most once.

    A miss contends for the bundle's lease in the store's
    :class:`~repro.store.cas.LeaseTable`: the winner builds and
    publishes the ``assets/v1`` blob and keeps its private build; every
    loser waits for that blob and maps it.  A corrupt blob is
    quarantined by the read and reads as a miss, so it is rebuilt and
    republished; a holder that died or failed vacates its lease and the
    next contender builds in its place.
    """
    from ..plane.bundle import (
        ASSETS_NAMESPACE,
        assets_from_payload,
        bundle_payload,
    )
    from ..store.cas import ContentStore, LeaseTable, lease_dir
    from ..store.keys import code_version_salt

    # A handle of its own on the same directory, byte bound and leases:
    # bundle traffic stays out of the caller's result counters and fault
    # plan.
    store = ContentStore(store.root, max_bytes=store.max_bytes)
    digest = key.digest(code_version_salt())
    leases = LeaseTable(lease_dir(store.root))
    while True:
        payload = store.get(digest, mapped=True)
        if payload is not None:
            reg.inc("assets.mapped")
            return assets_from_payload(payload)
        if leases.acquire(digest):
            try:
                # Published (and released) between our miss and acquire?
                if not store.contains(digest):
                    assets = _timed_build(key, reg)
                    store.put(digest, bundle_payload(assets),
                              family=ASSETS_NAMESPACE)
                    return assets
            finally:
                leases.release(digest)
        else:
            # Map on the next pass once it is published; contend again
            # when the holder failed or died instead.
            leases.wait(digest, lambda: store.contains(digest))


def load_assets(key: AssetKey, *, store=None, metrics=None) -> RegionAssets:
    """The region assets for ``key``: cache, store, or a fresh build.

    The one place residency is decided.  Resolution order:

    1. the per-process :class:`_AssetCache` (LRU bounded by bytes);
    2. with a ``store``, the bundle's ``assets/v1`` blob, mapped
       read-only (counted as ``assets.mapped``) — built and published
       first, exactly once per store, when it is not there;
    3. without one, a private build.

    Every build is counted as ``assets.cache.builds`` and timed as
    ``assets.build_s``; whatever is returned is then cached.
    """
    from ..obs.registry import global_registry

    reg = metrics if metrics is not None else global_registry()
    assets = _ASSET_CACHE.get(key, reg)
    if assets is not None:
        return assets
    assets = (_timed_build(key, reg) if store is None
              else _stored_assets(key, store, reg))
    _ASSET_CACHE.put(key, assets, reg)
    return assets


def load_region_assets(
    region_code: str,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    *,
    metrics=None,
) -> RegionAssets:
    """Build (or reuse) one region's inputs."""
    return load_assets(AssetKey(region_code, scale, seed), metrics=metrics)


def build_interventions(params: dict[str, Any]) -> list:
    """Intervention stack implied by a cell's parameters."""
    ivs = [make_sc(start=SC_START)]
    vhi = params.get("VHI_COMPLIANCE", params.get("vhi_compliance"))
    if vhi is not None:
        ivs.append(make_vhi(float(vhi)))
    sh = params.get("SH_COMPLIANCE", params.get("sh_compliance"))
    sh_days = int(params.get("lockdown_days", SH_DEFAULT_DAYS))
    sh_end = SH_START + sh_days
    if sh is not None:
        ivs.append(make_sh(float(sh), start=SH_START, end=sh_end))
    reopen = params.get("reopen_level")
    if reopen is not None:
        ivs.append(make_ro(float(reopen), start=sh_end))
    tracing = params.get("tracing_compliance")
    if tracing is not None:
        ivs.append(make_d1ct(compliance=float(tracing)))
    return ivs


@lru_cache(maxsize=128)
def _cached_covid_model(tau: float, symp: float):
    """One COVID model per (TAU, SYMP) cell, reused across replicates.

    Models are immutable once built and construction revalidates the whole
    PTTS, so replicate batches (same cell, different seeds) share one
    instance instead of paying the build per replicate.
    """
    return build_covid_model_with_symp_fraction(tau, symp)


def model_for_params(params: dict[str, Any]):
    """The (cached) disease model a cell's parameters imply."""
    tau = float(params.get("TAU", 0.18))
    symp = float(params.get("SYMP", 0.65))
    return _cached_covid_model(tau, symp)


def prepare_instance(
    assets: RegionAssets,
    params: dict[str, Any],
    *,
    seed: int,
) -> tuple[Simulation, Any]:
    """Build and seed one instance's simulation (not yet run).

    Shared by :func:`run_instance` and the batched executor, which needs
    the constructed-but-unrun lanes to stack them.  Returns the simulation
    and its disease model.
    """
    model = model_for_params(params)
    sim = Simulation(
        model, assets.pop, assets.net,
        seed=seed,
        interventions=build_interventions(params),
    )
    initialize_from_surveillance(sim, assets.truth.latest_by_county())
    return sim, model


def run_instance(
    assets: RegionAssets,
    params: dict[str, Any],
    *,
    n_days: int,
    seed: int,
) -> tuple[SimulationResult, Any]:
    """Run one (cell, region, replicate) simulation instance.

    Returns the result and the disease model used (needed for analytics).
    """
    sim, model = prepare_instance(assets, params, seed=seed)
    result = sim.run(n_days)
    return result, model


def _outcome_of(spec, result: SimulationResult, model: Any,
                summary: bool = False) -> "InstanceOutcome":
    """Reduce one run to the small gathered summary the store keeps,
    plus its per-state :class:`~repro.analytics.aggregate.RegionSummary`
    when ``summary``."""
    from .parallel import InstanceOutcome

    return InstanceOutcome(
        spec=spec,
        confirmed=confirmed_series(result, model, spec.n_days),
        attack_rate=result.attack_rate(model),
        transitions=result.log.size,
        summary=summarize(result, model) if summary else None,
    )


def execute_specs(
    specs: list, *, plan=None, attempt: int = 0, faults=None,
    allow_exit: bool = False, metrics=None, reduce=_outcome_of,
) -> list[tuple[Any, dict]]:
    """Execute one batchable spec group end to end.

    The unit of work the fan-out and the result store agree on, and the
    only driver tick loop in ``repro.core``: build (or reuse) the region
    assets, prepare one lane per spec, resume from the newest applicable
    checkpoint, step to the horizon — dying at an injected
    ``worker.crash_mid_run`` tick, snapshotting every ``plan.every`` ticks
    — and reduce each lane.  The group's K lanes (replicates sharing
    :func:`~repro.core.batching.group_key`, or lone specs of one horizon
    on different regions; K = 1 for a spec alone) are stacked into one
    :class:`~repro.epihiper.batch.BatchedSimulation` and advance K per
    vectorized tick, each lane on its own region's assets.  Every lane's
    output is bit-identical to :func:`run_instance`, resumed or not.

    The failure domain is the group: a crash rule firing for *any* lane
    kills the whole group at that tick (what a real worker death does),
    and resume restores every lane from the greatest tick *common* to all
    lanes' checkpoint chains — a crash mid-write may leave some lanes one
    snapshot ahead, and lanes must re-enter the loop aligned.  Snapshots
    are still independent blobs under each lane's own instance key, so a
    group re-formed differently later reuses them lane by lane.  A blob
    the CAS rejects (corrupt — quarantined there) or that loads but does
    not *apply* (format bump, changed intervention stack) is invalidated
    and the next-older common tick is tried, down to tick 0.

    With no plan (or ``every=0``) and no crash rule the loop pays two
    integer comparisons per tick and writes nothing.

    Raises :class:`~repro.epihiper.batch.BatchIncompatible` when K >= 2
    lane models cannot share a tick loop — callers fall back to one group
    per spec.

    Args:
        specs: the group (>= 1 spec, one horizon).
        plan: optional :class:`~repro.checkpoint.manager.CheckpointPlan`.
        attempt: the supervised attempt number (fault-rule matching).
        faults: optional fault plan (``worker.crash_mid_run`` site).
        allow_exit: pool workers die hard (``os._exit``); in-process
            callers get a transient :class:`InjectedFault` instead.
        metrics: registry receiving the group-level telemetry —
            ``runner.assets_s`` / ``runner.simulate_s`` timers,
            ``runner.ticks_executed``, the ``checkpoint.*`` counters and,
            for K >= 2, ``runner.batch_setup_s`` plus the ``batch.*``
            gauge and phase timers; defaults to the process
            :func:`~repro.obs.registry.global_registry`.
        reduce: ``(spec, result, model) -> summary`` applied to every
            lane's raw result (default: the gathered
            :class:`~repro.core.parallel.InstanceOutcome`).

    Returns:
        One ``(summary, dump)`` pair per spec, in input order.  The dump
        is the spec's own telemetry (``runner.instances`` plus the lane's
        ``engine.*`` counters) in registry-dump shape, so the fan-out
        merges it the same way whatever the group size.
    """
    import os as _os

    from ..checkpoint.format import CheckpointError
    from ..epihiper.batch import BatchedSimulation, BatchIncompatible
    from ..obs.registry import MetricsRegistry, global_registry
    from ..resilience.faults import CRASH_EXIT_CODE, InjectedFault
    from ..store.keys import instance_key
    from .parallel import _spec_key

    reg = metrics if metrics is not None else global_registry()
    first = specs[0]
    n_days = first.n_days
    if n_days < 0:
        raise ValueError("n_days must be non-negative")
    fired = [] if faults is None else [
        t for s in specs
        if (t := faults.crash_tick(_spec_key(s), attempt)) is not None]
    crash_tick = min(fired, default=-1)
    manager, ck_keys, every = None, [], 0
    if plan is not None and plan.enabled:
        manager, every = plan.manager(metrics=reg), plan.every
        ck_keys = [instance_key(s, salt=plan.salt) for s in specs]
    with reg.timer("runner.assets_s"):
        assets = {key: load_assets(key, metrics=reg) for key in
                  dict.fromkeys(AssetKey.of_spec(s) for s in specs)}

    def build():
        lanes = [prepare_instance(assets[AssetKey.of_spec(s)], s.params,
                                  seed=s.seed)
                 for s in specs]
        engine = BatchedSimulation([sim for sim, _model in lanes],
                                   metrics=reg)
        engine.begin()
        return lanes, engine

    # Setup (build, resume) closes before the simulate timer opens, so a
    # rebuild after an inapplicable snapshot is never counted twice.  Only
    # K >= 2 has a setup timer of its own; the setup of a spec run alone
    # has always been part of its simulate time.
    setup_timer = ("runner.batch_setup_s" if len(specs) > 1
                   else "runner.simulate_s")
    with reg.timer(setup_timer):
        lanes, engine = build()
        start = 0
        walk = manager.resume_points(ck_keys) if manager is not None else ()
        for ck_tick, payloads in walk:
            try:
                start = engine.restore_state(payloads)
            except (CheckpointError, BatchIncompatible):
                # A failed apply may have partially mutated the lanes.
                lanes, engine = build()
                for k in ck_keys:
                    manager.invalidate(k, ck_tick)
            else:
                for k in ck_keys:
                    manager.resumed(k, start, attempt=attempt)
                break
    with reg.timer("runner.simulate_s"):
        tick = flushed = start
        while tick < n_days:
            if tick == crash_tick:
                if allow_exit:
                    _os._exit(CRASH_EXIT_CODE)
                raise InjectedFault(
                    "worker.crash_mid_run",
                    f"{_spec_key(first)} (K={len(specs)}) "
                    f"attempt {attempt} tick {tick}")
            engine.step()
            tick += 1
            if every and tick % every == 0 and tick < n_days:
                # The driver defers its per-tick bookkeeping; its snapshot
                # flushes it so every lane's payload is self-contained.
                snaps = engine.save_state(ticks_since_flush=tick - flushed)
                flushed = tick
                for k, snap in zip(ck_keys, snaps):
                    manager.write(k, snap, tick=tick)
        engine.flush(tick - flushed)
        results = engine.finish()
    reg.inc("runner.ticks_executed", (n_days - start) * len(specs))
    out = []
    for spec, (_sim, model), result in zip(specs, lanes, results):
        lane_reg = MetricsRegistry()
        lane_reg.inc("runner.instances")
        lane_reg.merge(result.metrics)
        out.append((reduce(spec, result, model), lane_reg.dump()))
    return out


def execute_spec(spec, *, metrics=None) -> "InstanceOutcome":
    """Execute one spec: :func:`execute_specs` on a group of one.

    Returns the bare outcome; the lane's telemetry is merged into
    ``metrics`` (default: the process registry) alongside the group's.
    """
    from ..obs.registry import global_registry

    reg = metrics if metrics is not None else global_registry()
    [(outcome, lane_dump)] = execute_specs([spec], metrics=reg)
    reg.merge(lane_dump)
    return outcome


def execute_specs_batched(
    specs: list, *, metrics=None
) -> list[tuple["InstanceOutcome", dict]]:
    """Execute one spec group: :func:`execute_specs` without a plan."""
    return execute_specs(specs, metrics=metrics)


def confirmed_series(
    result: SimulationResult, model: Any, n_days: int
) -> np.ndarray:
    """Cumulative confirmed-case curve of one run (simulation scale).

    Confirmed cases are ascertained symptomatic cases, matching how the
    calibration compares simulated counts to surveillance.
    """
    sympt = state_cumulative_curve(result.log, model.code(SYMPT), n_days)
    return sympt * ASCERTAINMENT


def observed_series(truth: GroundTruth, scale: float, n_days: int) -> np.ndarray:
    """Ground truth rescaled to simulation scale over ``n_days + 1`` points."""
    cum = truth.state_cumulative()
    if cum.shape[0] < n_days + 1:
        raise ValueError("truth series shorter than requested horizon")
    return cum[: n_days + 1] * scale
