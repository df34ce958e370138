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

The matrix, all at scale 1e-3 over ``N_DAYS`` ticks: 3 small regions x
2 cells x 2 seeds x dense/frontier, each run solo and as a lane of a K=4
group (the group is the region/backend's 2 cells x 2 seeds); plus one
intervention-heavy cell (SH + VHI + RO + contact tracing) and one
checkpoint-resumed cell (killed mid-run, resumed from its newest
snapshot), each solo and as a K=4 group.  Every lane runs through
:func:`repro.core.runner.execute_specs`, the executor the fan-out uses.

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
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.checkpoint.manager import CheckpointPlan
from repro.core.parallel import InstanceSpec
from repro.core.runner import _outcome_of, execute_specs
from repro.obs.registry import MetricsRegistry
from repro.resilience.faults import FaultPlan, InjectedFault
from repro.store.cas import payload_digest
from repro.store.memo import outcome_payload

GOLDEN_PATH = Path(__file__).with_name("outcomes.json")

SCALE = 1e-3
N_DAYS = 40
REGIONS = ("VT", "WY", "ND")
SEEDS = (1, 2)
BACKENDS = ("dense", "frontier")
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


def _spec(case_id: str, region: str, params: dict, seed: int,
          backend: str) -> InstanceSpec:
    return InstanceSpec(region, {**params, "backend": backend}, N_DAYS,
                        SCALE, seed, label=case_id)


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


def groups() -> list[tuple[str, list[InstanceSpec]]]:
    """``(kind, K=4 group)`` for every group of the matrix, in file order;
    ``kind`` is ``"plain"`` or ``"resumed"``."""
    out = []
    for region in REGIONS:
        for backend in BACKENDS:
            out.append(("plain", [
                _spec(f"{region}/{cell}/s{seed}/{backend}", region, params,
                      seed, backend)
                for cell, params in CELLS.items() for seed in SEEDS]))
    out.append(("plain", [
        _spec(f"{HEAVY_REGION}/heavy/s{seed}/{backend}", HEAVY_REGION, HEAVY,
              seed, backend)
        for seed in SEEDS for backend in BACKENDS]))
    out.append(("resumed", [
        _spec(f"{RESUME_REGION}/a-resumed/s{seed}/{backend}", RESUME_REGION,
              CELLS["a"], seed, backend)
        for seed in SEEDS for backend in BACKENDS]))
    return out


def run_group(kind: str, specs: list[InstanceSpec],
              store_root: str) -> dict[str, dict[str, str]]:
    """One group's lanes, solo (``<id>/solo``) and batched (``<id>/k4``)."""
    if kind == "resumed":
        solo = [_run_resumed([s], f"{store_root}/solo-{s.label}")[0]
                for s in specs]
        batched = _run_resumed(specs, f"{store_root}/{specs[0].label}")
    else:
        solo = [_run([s])[0] for s in specs]
        batched = _run(specs)
    cases = {}
    for spec, one, lane in zip(specs, solo, batched):
        cases[f"{spec.label}/solo"] = one
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
