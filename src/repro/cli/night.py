"""``night`` and ``chaos``: the modelled nightly cycle and the fault
drills (``chaos run`` checks survivors bit-identical to a clean run)."""

from __future__ import annotations

import argparse
import sys

from . import EXIT_QUARANTINED, options


def _cmd_night(args: argparse.Namespace) -> int:
    from ..core.designs import (
        calibration_design,
        economic_design,
        prediction_design,
    )
    from ..core.orchestrator import check_night_faults, orchestrate_night

    designs = {
        "prediction": prediction_design,
        "economic": economic_design,
        "calibration": lambda: calibration_design(seed=args.seed),
    }
    design = designs[args.workflow]()
    if args.resume and args.no_cache:
        raise SystemExit("--resume and --no-cache are contradictory")
    resume = args.resume
    if resume and not args.ledger:
        print("night --resume needs --ledger PATH to replay",
              file=sys.stderr)
        return 2
    faults = options.resolve_faults(args)
    try:
        check_night_faults(faults)
    except ValueError as exc:
        print(f"night: {exc}", file=sys.stderr)
        return 2
    from ..resilience import DEFAULT_RETRY_POLICY, TransientError

    tracer = options.resolve_tracer(args, run_id=f"night:{args.workflow}")
    with tracer:
        try:
            report = orchestrate_night(
                design, algorithm=args.algorithm, seed=args.seed,
                ledger=options.resolve_ledger(args), resume=resume,
                tracer=tracer,
                degrade=args.degrade, min_replicates=args.min_replicates,
                faults=faults,
                retry=DEFAULT_RETRY_POLICY if faults is not None else None,
                checkpoint_every=args.checkpoint_every)
        except TransientError as exc:
            # Retries exhausted on a pipeline leg (every attempt of a
            # transfer or of a job failed): the night lost work — report
            # it as a quarantine-class failure, not a traceback.
            print(f"night {args.workflow}: gave up after retries — {exc}",
                  file=sys.stderr)
            return EXIT_QUARANTINED
    print(report.summary())
    return 0 if report.fits_window else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.action == "sites":
        from ..resilience.faults import FAULT_SITES

        for site, desc in sorted(FAULT_SITES.items()):
            print(f"{site:<18} {desc}")
        return 0

    import contextlib
    import tempfile

    import numpy as np

    from ..checkpoint import checkpoint_plan
    from ..core.parallel import (
        InstanceSpec,
        run_instances,
        supervise_instances,
    )
    from ..obs import MetricsRegistry
    from ..resilience import FaultPlan, RetryPolicy
    from ..store import open_store
    from ..store.keys import instance_key

    plan = options.resolve_faults(args) or FaultPlan()
    retry = RetryPolicy.from_flags(args.max_attempts, args.fault_seed,
                                   base_delay_s=args.base_delay,
                                   timeout_s=args.timeout)
    specs = [
        InstanceSpec(
            region_code=args.region,
            params={"TAU": args.tau, "SYMP": 0.65},
            n_days=args.days, scale=args.scale, seed=args.seed + 17 * i,
            label=f"chaos-{args.region}-i{i}", asset_seed=args.seed)
        for i in range(args.instances)
    ]
    parallel = not args.serial

    print(f"plan: {plan.describe() or '(no faults)'}")
    print(f"retry: {args.max_attempts} attempts, "
          f"base delay {args.base_delay}s"
          + (f", timeout {args.timeout}s" if args.timeout else ""))

    baseline = run_instances(specs, parallel=parallel,
                             max_workers=args.workers,
                             registry=MetricsRegistry())

    reg = MetricsRegistry()
    with contextlib.ExitStack() as scratch:
        # Only the chaos leg checkpoints (the baseline is the clean
        # reference); without --store-dir, into a store removed after it.
        checkpoint = None
        if args.checkpoint_every > 0:
            ck_root = args.store_dir or scratch.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-chaos-ck-"))
            checkpoint = checkpoint_plan(open_store(ck_root),
                                         args.checkpoint_every,
                                         ledger=args.ledger)
            print(f"checkpoint: every {args.checkpoint_every} ticks "
                  f"-> {ck_root}")
        res = supervise_instances(specs, parallel=parallel,
                                  max_workers=args.workers, registry=reg,
                                  retry=retry, faults=plan,
                                  ledger=options.resolve_ledger(args),
                                  checkpoint=checkpoint)
    print(f"chaos: {res.summary()}")
    for name in sorted(reg.names()):
        if (name.startswith(("faults.", "retry.", "checkpoint.",
                             "parallel.pool_"))
                and reg.value(name)):
            print(f"  {name} = {int(reg.value(name))}")

    # Optional store leg: publish the surviving results through a faulted
    # store, so ``cas.corrupt`` plants bad blobs the read path must catch.
    if args.store_dir:
        from ..store.memo import outcome_from_payload, outcome_payload

        store = open_store(args.store_dir, faults=plan)
        keys = [instance_key(s) for s in specs]
        for key, outcome in zip(keys, res.results):
            if outcome is not None:
                store.put(key, outcome_payload(outcome))
        recovered = 0
        for i, (key, outcome) in enumerate(zip(keys, res.results)):
            if outcome is None:
                continue
            payload = store.get(key)
            if payload is None:  # corrupt blob quarantined: re-publish
                store.put(key, outcome_payload(outcome))
                payload = store.get(key)
                recovered += 1
            if payload is None:
                print(f"  store: {key[:12]} unrecoverable")
                return 1
            res.results[i] = outcome_from_payload(specs[i], payload)
        print(f"  store: {int(store.metrics.value('faults.cas.corrupt'))} "
              f"corruptions injected, "
              f"{int(store.metrics.value('store.corrupt'))} detected, "
              f"{recovered} recovered; {store.summary()}")

    # The equivalence check: every spec that survived the chaos run must
    # match the clean run bit for bit.
    mismatched = []
    for clean, chaotic in zip(baseline, res.results):
        if chaotic is None:
            continue
        if (not np.array_equal(clean.confirmed, chaotic.confirmed)
                or clean.attack_rate != chaotic.attack_rate
                or clean.transitions != chaotic.transitions):
            mismatched.append(chaotic.spec.label)
    n_done = len(res.completed())
    if mismatched:
        print(f"equivalence: FAILED — {len(mismatched)}/{n_done} surviving "
              f"results differ from the clean run: "
              f"{', '.join(mismatched)}")
        return 1
    print(f"equivalence: OK — {n_done}/{len(specs)} surviving results "
          f"bit-identical to the clean run"
          + (f" ({len(res.quarantined)} quarantined)"
             if res.quarantined else ""))
    return EXIT_QUARANTINED if res.quarantined else 0


class _NightSites:
    """``NIGHT_FAULT_SITES`` for ``night --help``, read only when the help
    is printed: building the parser must not import the orchestrator."""

    def __str__(self) -> str:
        from ..core.orchestrator import NIGHT_FAULT_SITES

        return ", ".join(NIGHT_FAULT_SITES)


def add_parsers(sub) -> None:
    """Add ``night`` and ``chaos``."""
    p = sub.add_parser("night", help="orchestrate one nightly cycle")
    p.add_argument("workflow",
                   choices=("prediction", "economic", "calibration"))
    p.add_argument("--algorithm", default="FFDT-DC",
                   choices=("FFDT-DC", "NFDT-DC"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degrade", action="store_true",
                   help="shed lowest-priority replicates (deterministically, "
                        "preserving per-cell coverage) when the projected "
                        "makespan blows the window")
    p.add_argument("--min-replicates", type=int, default=1,
                   help="per-cell coverage floor when degrading (default 1)")
    inject = p.add_argument(
        "--inject", action="append", metavar="SITE[:k=v,...]",
        help="inject faults (%(sites)s; e.g. node.fail:mttf=500); "
             "repeatable — see 'repro chaos sites'")
    inject.sites = _NightSites()
    p.add_argument("--fault-seed", type=int, default=0,
                   help="fault-plan seed (deterministic firing)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   metavar="N",
                   help="model remote jobs snapshotting every N simulated "
                        "days: the per-task write cost inflates the "
                        "projected makespan before the window-fit check "
                        "(default 0 = off)")
    options.add_cache_flags(p)
    options.add_trace_flags(p)
    p.set_defaults(func=_cmd_night)

    p = sub.add_parser(
        "chaos", help="fault-injection drills against the live runtime")
    csub = p.add_subparsers(dest="action", required=True)
    sp = csub.add_parser("sites", help="list the injectable fault sites")
    sp.set_defaults(func=_cmd_chaos)
    sp = csub.add_parser(
        "run",
        help="run a batch clean, re-run it under injected faults with "
             "supervised retries, and verify bit-identical survival")
    sp.add_argument("region")
    sp.add_argument("--inject", action="append", metavar="SITE[:k=v,...]",
                    help="fault rule, e.g. worker.crash:times=1 or "
                         "worker.exception:p=0.3,match=i2; repeatable")
    sp.add_argument("--instances", type=int, default=4)
    sp.add_argument("--days", type=int, default=30)
    sp.add_argument("--scale", type=float, default=1e-3)
    sp.add_argument("--tau", type=float, default=0.18)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fault-seed", type=int, default=0,
                    help="fault-plan + backoff-jitter seed")
    sp.add_argument("--max-attempts", type=int, default=3)
    sp.add_argument("--base-delay", type=float, default=0.05,
                    help="backoff base delay in seconds")
    sp.add_argument("--timeout", type=float, default=None,
                    help="per-attempt timeout in seconds (pooled runs)")
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--serial", action="store_true",
                    help="in-process execution (worker.crash raises "
                         "instead of killing a pool worker)")
    sp.add_argument("--ledger", metavar="PATH",
                    help="journal quarantines to this JSONL ledger")
    sp.add_argument("--store-dir", metavar="DIR",
                    help="also round-trip surviving results through a "
                         "store at DIR (cas.corrupt plants bad blobs "
                         "the integrity check must catch)")
    sp.add_argument("--checkpoint-every", type=int, default=0,
                    metavar="N",
                    help="checkpoint the chaos leg every N ticks (to "
                         "--store-dir, or a temp store) so "
                         "worker.crash_mid_run drills the crash -> "
                         "resume -> bit-identical path (default 0 = off)")
    sp.set_defaults(func=_cmd_chaos)
