"""The option groups several commands share, and what their flags open.

What a flag opens is decided in its subsystem (``open_store``,
``FaultPlan.from_flags``, ``checkpoint_plan``, …), which ``build_service``
calls too; here a refused combination becomes a usage exit.
"""

from __future__ import annotations

import argparse
from pathlib import Path


def add_cache_flags(p: argparse.ArgumentParser) -> None:
    """The shared caching / journaling options."""
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the result store (and ledger-based resume)")
    p.add_argument("--resume", action="store_true",
                   help="reuse completed work: for 'night', replay the "
                        "ledger and re-execute only missing instances; for "
                        "'simulate'/'calibrate' this is the default "
                        "whenever caching is enabled")
    p.add_argument("--ledger", metavar="PATH",
                   help="append run events to this JSONL journal")
    p.add_argument("--store-dir", metavar="DIR",
                   help="result-store directory (default REPRO_STORE_DIR "
                        "or ~/.cache/repro/store)")


def add_trace_flags(p: argparse.ArgumentParser) -> None:
    """The shared tracing options."""
    p.add_argument("--trace", metavar="PATH",
                   help="write the span/metrics trace to this JSONL file "
                        "(default REPRO_TRACE_PATH or "
                        "~/.cache/repro/trace.jsonl)")
    p.add_argument("--no-trace", action="store_true",
                   help="keep the trace in memory only, write no file")


def add_scenario_flags(p: argparse.ArgumentParser) -> None:
    """The scenario a command runs or submits: region, horizon, cell."""
    p.add_argument("region")
    p.add_argument("--days", type=int, default=120)
    p.add_argument("--scale", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=0.18)
    p.add_argument("--symp", type=float, default=0.65)
    p.add_argument("--sh-compliance", type=float)
    p.add_argument("--vhi-compliance", type=float)


def scenario_params(args: argparse.Namespace) -> dict:
    """The cell parameters :func:`add_scenario_flags` names."""
    params = {"TAU": args.tau, "SYMP": args.symp}
    if args.sh_compliance is not None:
        params["SH_COMPLIANCE"] = args.sh_compliance
    if args.vhi_compliance is not None:
        params["VHI_COMPLIANCE"] = args.vhi_compliance
    return params


def resolve_store(args: argparse.Namespace):
    """The store implied by the flags (None when caching is off)."""
    from ..store import open_store

    if args.no_cache and args.resume:
        raise SystemExit("--resume and --no-cache are contradictory")
    return open_store(args.store_dir, no_cache=args.no_cache)


def resolve_ledger(args: argparse.Namespace):
    """The run ledger implied by the flags (None when not journaling)."""
    if not args.ledger:
        return None
    from ..store import RunLedger

    return RunLedger(Path(args.ledger))


def resolve_faults(args: argparse.Namespace):
    """The fault plan ``--inject`` implies (None when nothing is injected)."""
    from ..resilience import FaultPlan

    try:
        return FaultPlan.from_flags(args.inject, seed=args.fault_seed)
    except ValueError as exc:
        raise SystemExit(str(exc))


def resolve_checkpoint(args: argparse.Namespace, store):
    """The checkpoint plan ``--checkpoint-every`` implies (None = off)."""
    from ..checkpoint import checkpoint_plan

    try:
        return checkpoint_plan(store, args.checkpoint_every,
                               ledger=args.ledger)
    except ValueError as exc:
        raise SystemExit(str(exc))


def resolve_tracer(args: argparse.Namespace, run_id: str):
    """The tracer implied by the flags (always a live tracer; with
    ``--no-trace`` it records in memory without touching disk)."""
    from ..obs import Tracer, default_trace_path

    if args.no_trace:
        return Tracer(None, run_id=run_id)
    path = Path(args.trace) if args.trace else default_trace_path()
    return Tracer(path, run_id=run_id)

