"""Golden outcome digests: the engine's output bytes pinned across commits.

Every equivalence suite compares two code paths at the *same* commit; this
file pins a small frozen matrix to digests committed alongside the code,
so a refactor that changes a trajectory on every path at once still turns
something red.  Two SHA-256 digests per lane:

- ``payload``: :func:`~repro.store.cas.payload_digest` of the lane's
  :func:`~repro.store.memo.outcome_payload` — the canonical bytes every
  result store caches (a changed digest invalidates every cached result);
- ``result``: the same digest over the full
  :class:`~repro.epihiper.engine.SimulationResult` the engine emits (log
  columns, ``state_counts``, ``memory_series``).

Each case names a transmission kernel as its last label component:
``dense`` and ``frontier`` cases run with that kernel forced on every
tick (:func:`forced_kernel`), ``auto`` cases with the engine's own rule.
A group mixing kernels runs once per kernel, and each lane's batched
digests come from the run under its own kernel.

The matrix, all at scale 1e-3 over ``N_DAYS`` ticks: 3 small regions x
2 cells x 2 seeds x dense/frontier, each run solo and as a lane of a K=4
group (the group is the region/kernel's 2 cells x 2 seeds); plus one
intervention-heavy cell (SH + VHI + RO + contact tracing) and one
checkpoint-resumed cell (killed mid-run, resumed from its newest
snapshot), each solo and as a K=4 group.  Three groups close what only
the two-path suites pinned: the rule (K=4), one K=16 group (frontier and
rule lanes), and K=4 lanes over a region bundle published to a store and
mapped back read-only, one of them masking (its own float64 weights)
next to lanes that read the bundle's shared float32 column.  Every lane
runs through :func:`repro.core.runner.execute_specs`, the executor the
fan-out uses, except the mapped group's: no cell parameter masks, so
those lanes are prepared with :func:`~repro.core.runner.prepare_instance`
and run with ``Simulation.run`` (solo) and ``BatchedSimulation.run``
(K=4).

Usage (from the repo root)::

    PYTHONPATH=src python tests/golden/generate.py               # compare
    PYTHONPATH=src python tests/golden/generate.py --regenerate   # rewrite

``--regenerate`` must be justified in CHANGES.md: a new digest means the
engine emits different bytes, so every cached result in every store is
stale.  The file records the Python (major.minor) and numpy versions it
was generated under; on any other versions the comparison is
unverifiable, not green.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.checkpoint.manager import CheckpointPlan
from repro.core.parallel import InstanceSpec, close_pool
from repro.core.runner import (
    _outcome_of,
    execute_specs,
    load_region_assets,
    prepare_instance,
)
from repro.epihiper import transmission
from repro.epihiper.batch import BatchedSimulation
from repro.epihiper.npi import make_masking
from repro.obs.registry import MetricsRegistry
from repro.plane.bundle import (
    ASSETS_NAMESPACE,
    AssetKey,
    assets_from_payload,
    bundle_payload,
)
from repro.resilience.faults import FaultPlan, InjectedFault
from repro.store.cas import ContentStore, payload_digest
from repro.store.memo import outcome_payload

GOLDEN_PATH = Path(__file__).with_name("outcomes.json")

SCALE = 1e-3
N_DAYS = 40
REGIONS = ("VT", "WY", "ND")
SEEDS = (1, 2)
KERNELS = ("dense", "frontier")
CELLS = {
    "a": {"TAU": 0.3, "SYMP": 0.65},
    "b": {"TAU": 0.45, "SYMP": 0.5, "VHI_COMPLIANCE": 0.5},
}
#: SH from tick 20 for 10 days, then partial reopening; VHI and distance-1
#: contact tracing throughout (school closure is in every stack).
HEAVY = {"TAU": 0.45, "SYMP": 0.65, "SH_COMPLIANCE": 0.6,
         "VHI_COMPLIANCE": 0.7, "lockdown_days": 10, "reopen_level": 0.5,
         "tracing_compliance": 0.6}
HEAVY_REGION = "VT"
RESUME_REGION = "WY"
RESUME_EVERY = 10
RESUME_CRASH_TICK = 25
AUTO_REGION = "ND"
#: 2 cells x 4 seeds x frontier/auto: one K=16 group.
WIDE_REGION = "VT"
WIDE_SEEDS = (11, 12, 13, 14)
WIDE_KERNELS = ("frontier", "auto")
MAPPED_REGION = "WY"
#: The mapped group's masking lane (index into its specs) and its mandate.
MASKED_LANE = 1
MASK = {"compliance": 0.7, "weight_factor": 0.5, "start": 5, "end": 30}


#: The rule's crossover that forces each kernel: no gather workload is at
#: most -1 x |E|, every one is at most inf x |E|.
FORCING = {"dense": -1.0, "frontier": math.inf}


@contextmanager
def forced_kernel(kernel: str):
    """Run the block with every tick on ``kernel`` (``dense`` or
    ``frontier``), or on the engine's rule (``auto``).

    Patches the rule's crossover in this process.  The fan-out's pool is
    closed on entry and on exit, so a pooled fan-out inside the block
    forks after the patch and no worker outlives it.
    """
    if kernel not in (*FORCING, "auto"):
        raise ValueError(f"unknown kernel {kernel!r}")
    close_pool()
    rule = transmission.FRONTIER_DENSE_CROSSOVER
    transmission.FRONTIER_DENSE_CROSSOVER = FORCING.get(kernel, rule)
    try:
        yield
    finally:
        transmission.FRONTIER_DENSE_CROSSOVER = rule
        close_pool()


def versions() -> dict[str, str]:
    """The toolchain the digests depend on (Python's float arithmetic does
    not change within a minor series; numpy's generators and ufuncs may)."""
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": np.__version__}


def _digests(spec, result, model) -> dict[str, str]:
    """``reduce`` for :func:`execute_specs`: the lane's two digests."""
    outcome = _outcome_of(spec, result, model)
    log = result.log
    emitted = {
        "log_tick": log.tick, "log_pid": log.pid, "log_state": log.state,
        "log_infector": log.infector,
        "state_counts": result.state_counts,
        "memory_series": result.memory_series,
    }
    return {"payload": payload_digest(outcome_payload(outcome)).tobytes().hex(),
            "result": payload_digest(emitted).tobytes().hex()}


def _spec(case_id: str, region: str, params: dict,
          seed: int) -> InstanceSpec:
    return InstanceSpec(region, dict(params), N_DAYS, SCALE, seed,
                        label=case_id)


def _is_masked(spec: InstanceSpec) -> bool:
    """Whether a mapped-group case is its ``MASKED_LANE``."""
    return "/a-masked/" in spec.label


def _kernel(spec: InstanceSpec) -> str:
    """The kernel a case names: its label's last component."""
    return spec.label.rsplit("/", 1)[1]


def _run(specs: list[InstanceSpec], **options) -> list[dict[str, str]]:
    return [digest for digest, _dump in execute_specs(
        specs, metrics=MetricsRegistry(), reduce=_digests, **options)]


def _run_resumed(specs: list[InstanceSpec],
                 store_root: str) -> list[dict[str, str]]:
    """Kill the group at ``RESUME_CRASH_TICK``, then resume it."""
    plan = CheckpointPlan(store_root=store_root, every=RESUME_EVERY,
                          salt="golden")
    faults = FaultPlan.parse(
        [f"worker.crash_mid_run:tick={RESUME_CRASH_TICK},times=1"])
    try:
        _run(specs, plan=plan, faults=faults, attempt=0)
    except InjectedFault:
        pass
    else:
        raise AssertionError("the crash rule did not fire")
    reg = MetricsRegistry()
    out = [digest for digest, _dump in execute_specs(
        specs, plan=plan, faults=faults, attempt=1, metrics=reg,
        reduce=_digests)]
    if reg.value("checkpoint.resumed") != len(specs):
        raise AssertionError("the retry restarted instead of resuming")
    return out


def _mapped(specs: list[InstanceSpec], store_root: str):
    """The group's region bundle, published to a store under
    ``store_root`` and mapped back read-only (as a process that did not
    build it reads it)."""
    spec = specs[0]
    store = ContentStore(store_root)
    digest = AssetKey.of_spec(spec).digest("golden")
    store.put(digest, bundle_payload(load_region_assets(
        spec.region_code, spec.scale, spec.asset_seed)),
        family=ASSETS_NAMESPACE)
    assets = assets_from_payload(store.get(digest, mapped=True))
    if assets.net.weight.flags.writeable:
        raise AssertionError("the bundle was not mapped read-only")
    return assets


def _run_mapped(specs: list[InstanceSpec], assets,
                batched: bool) -> list[dict[str, str]]:
    """Prepare each lane over the mapped ``assets`` (the ``MASKED_LANE``
    with a mask mandate) and run them solo or as one batch."""
    masked = [_is_masked(s) for s in specs]
    lanes = []
    for s, mask in zip(specs, masked):
        sim, model = prepare_instance(assets, s.params, seed=s.seed)
        if mask:
            sim.interventions.append(make_masking(**MASK))
        lanes.append((sim, model))
    sims = [sim for sim, _model in lanes]
    results = (BatchedSimulation(sims).run(N_DAYS) if batched
               else [sim.run(N_DAYS) for sim in sims])
    shared = [sim.private_weight() is None for sim in sims]
    if shared != [not mask for mask in masked]:
        raise AssertionError(f"weight sharing is not as planned: {shared}")
    return [_digests(s, result, model)
            for s, (_sim, model), result in zip(specs, lanes, results)]


def groups() -> list[tuple[str, list[InstanceSpec]]]:
    """``(kind, group)`` for every group of the matrix, in file order;
    ``kind`` is ``"plain"``, ``"resumed"`` or ``"mapped"``."""
    out = []
    for region in REGIONS:
        for kernel in KERNELS:
            out.append(("plain", [
                _spec(f"{region}/{cell}/s{seed}/{kernel}", region, params,
                      seed)
                for cell, params in CELLS.items() for seed in SEEDS]))
    out.append(("plain", [
        _spec(f"{HEAVY_REGION}/heavy/s{seed}/{kernel}", HEAVY_REGION, HEAVY,
              seed)
        for seed in SEEDS for kernel in KERNELS]))
    out.append(("resumed", [
        _spec(f"{RESUME_REGION}/a-resumed/s{seed}/{kernel}", RESUME_REGION,
              CELLS["a"], seed)
        for seed in SEEDS for kernel in KERNELS]))
    out.append(("plain", [
        _spec(f"{AUTO_REGION}/{cell}/s{seed}/auto", AUTO_REGION, params,
              seed)
        for cell, params in CELLS.items() for seed in SEEDS]))
    out.append(("plain", [
        _spec(f"{WIDE_REGION}/{cell}/s{seed}/{kernel}", WIDE_REGION,
              params, seed)
        for cell, params in CELLS.items() for seed in WIDE_SEEDS
        for kernel in WIDE_KERNELS]))
    mapped = [(seed, kernel) for seed in SEEDS
              for kernel in ("dense", "auto")]
    out.append(("mapped", [
        _spec(f"{MAPPED_REGION}/a-{'masked' if i == MASKED_LANE else 'mapped'}"
              f"/s{seed}/{kernel}", MAPPED_REGION, CELLS["a"], seed)
        for i, (seed, kernel) in enumerate(mapped)]))
    return out


def _run_kind(kind: str, specs: list[InstanceSpec], store_root: str,
              batched: bool) -> list[dict[str, str]]:
    """The group's lanes run solo, or as one batch."""
    if kind == "mapped":
        assets = _mapped(specs, f"{store_root}/{specs[0].label}")
        return _run_mapped(specs, assets, batched)
    if kind == "resumed":
        if batched:
            return _run_resumed(specs, f"{store_root}/{specs[0].label}")
        return [_run_resumed([s], f"{store_root}/solo-{s.label}")[0]
                for s in specs]
    return _run(specs) if batched else [_run([s])[0] for s in specs]


def run_group(kind: str, specs: list[InstanceSpec],
              store_root: str) -> dict[str, dict[str, str]]:
    """One group's lanes, solo (``<id>/solo``) and batched
    (``<id>/k<K>``), each under the kernel its case names."""
    cases = {}
    for kernel in sorted({_kernel(s) for s in specs}):
        root = f"{store_root}/{kernel}"
        with forced_kernel(kernel):
            mine = [s for s in specs if _kernel(s) == kernel]
            solo = _run_kind(kind, mine, root, batched=False)
            batched = _run_kind(kind, specs, root, batched=True)
        for spec, one in zip(mine, solo):
            cases[f"{spec.label}/solo"] = one
        for spec, lane in zip(specs, batched):
            if _kernel(spec) == kernel:
                cases[f"{spec.label}/k{len(specs)}"] = lane
    return cases


def compute() -> dict[str, dict[str, str]]:
    """Every case's digests, recomputed with the code on ``sys.path``."""
    cases: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        for kind, specs in groups():
            cases.update(run_group(kind, specs, tmp))
    return cases


def load(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def mismatches(golden: dict[str, dict[str, str]],
               current: dict[str, dict[str, str]]) -> list[str]:
    """One line per case whose digests differ (or that exists on one side)."""
    lines = []
    for case in sorted(set(golden) | set(current)):
        want, got = golden.get(case), current.get(case)
        if want is None or got is None:
            lines.append(f"{case}: only in "
                         f"{'the golden file' if got is None else 'this run'}")
            continue
        bad = sorted(name for name in set(want) | set(got)
                     if want.get(name) != got.get(name))
        if bad:
            lines.append(f"{case}: {' and '.join(bad)} digest changed")
    return lines


def cli(argv: list[str] | None, path: Path, compute_cases,
        description: str) -> int:
    """Compare ``compute_cases()`` with the golden file at ``path``, or
    rewrite it with ``--regenerate``; the exit status of either script."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--regenerate", action="store_true",
                    help=f"rewrite {path.name} (justify it in CHANGES.md)")
    args = ap.parse_args(argv)
    current = compute_cases()
    if args.regenerate:
        path.write_text(
            json.dumps({**versions(), "cases": current}, indent=1,
                       sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(current)} cases to {path}")
        return 0
    golden = load(path)
    if {k: golden[k] for k in versions()} != versions():
        print(f"unverifiable: generated under {golden['python']} / numpy "
              f"{golden['numpy']}, running {versions()}")
        return 2
    bad = mismatches(golden["cases"], current)
    for line in bad:
        print(line)
    print(f"{len(current) - len(bad)}/{len(current)} cases match")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    return cli(argv, GOLDEN_PATH, compute, __doc__.split("\n")[0])


if __name__ == "__main__":
    sys.exit(main())
