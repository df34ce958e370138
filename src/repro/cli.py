"""Command-line interface to the reproduction.

Subcommands mirror the operational steps of the paper's pipeline::

    repro info                       # regions, categories, machine specs
    repro synth VA --scale 1e-3 -o out/       # build population + network
    repro simulate VA --days 120 --tau 0.22   # run EpiHiper for one region
    repro calibrate VA --cells 30 --days 80   # case-study-3 calibration
    repro night prediction                    # orchestrate a nightly cycle
    repro store stats                         # result-store maintenance
    repro plane stats                         # shared-memory asset plane
    repro trace summarize                     # where did the night go?
    repro chaos run VA --inject worker.crash:times=1   # fault drill
    repro serve --port 8377                   # always-on scenario service
    repro submit VT --tau 0.22 --days 60      # ask the running service
    repro surrogate train                     # fit the emulator fast path

``serve`` runs the scenario service plane: a bounded priority queue with
request coalescing (identical scenarios share one computation) in front
of the supervised, store-memoized fan-out, behind a JSON HTTP API.
``submit`` is its client.  ``serve --surrogate`` puts the trained
emulator (``repro surrogate train``) in front of the queue: confident
repeat-family scenarios are answered immediately with uncertainty bands
(``source: "surrogate"``), everything else runs exactly and feeds the
next retrain.  Commands that can lose work to faults —
``simulate --inject``, ``night`` when transfers exhaust retries,
``chaos run``, ``submit`` whose request fails — exit with code 4
(quarantined) so schedulers can tell partial loss from hard failure.

``chaos run`` executes a batch twice — clean, then under an injected
:class:`~repro.resilience.faults.FaultPlan` with supervised retries — and
verifies the surviving results are bit-identical to the clean run's
(recovery re-enters the same RNG streams).  ``night --degrade`` sheds the
lowest-priority replicates when the projected makespan blows the window.

``simulate``, ``calibrate`` and ``night`` are cached through the
content-addressed result store by default (``--no-cache`` bypasses it) and
journal to a JSONL run ledger with ``--ledger``; ``night --resume`` replays
the ledger and re-executes only the instances it does not record.

The same three commands stream a span/metrics trace to a JSONL file
(``--trace PATH``, default ``REPRO_TRACE_PATH`` or
``~/.cache/repro/trace.jsonl``; ``--no-trace`` keeps it in memory only).
``repro trace summarize`` renders the per-night report — engine phase
breakdown, workflow timeline, store hit rates, transfer volumes — and
``repro trace export`` emits the JSON form.

Run ``python -m repro.cli <cmd> -h`` for per-command options.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

#: Cache-key namespace for the ``simulate`` command's summary payload
#: (confirmed + deaths series, attack rate, peak day).
SIMULATE_NAMESPACE = "simulate-summary/v2"

#: Exit code for "work was quarantined / lost to faults": distinct from
#: 1 (domain failure, e.g. blown window or mismatch) and 2 (bad usage),
#: so scripted callers can tell "ran but gave up on some work" apart.
EXIT_QUARANTINED = 4


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
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


def _resolve_store(args: argparse.Namespace):
    """The store implied by the flags (None when caching is off)."""
    if args.no_cache:
        if args.resume:
            raise SystemExit("--resume and --no-cache are contradictory")
        return None
    from .store import ContentStore, default_store

    if args.store_dir:
        return ContentStore(Path(args.store_dir))
    return default_store()


def _resolve_ledger(args: argparse.Namespace):
    """The run ledger implied by the flags (None when not journaling)."""
    if not args.ledger:
        return None
    from .store import RunLedger

    return RunLedger(Path(args.ledger))


def _resolve_faults(args: argparse.Namespace):
    """The fault plan ``--inject`` implies (None when nothing is injected)."""
    if not args.inject:
        return None
    from .resilience import FaultPlan

    try:
        return FaultPlan.parse(args.inject, seed=args.fault_seed)
    except ValueError as exc:
        raise SystemExit(f"bad --inject spec: {exc}")


def _resolve_checkpoint(args: argparse.Namespace, store):
    """The checkpoint plan ``--checkpoint-every`` implies (None = off).

    Snapshots ride the result store's CAS (``checkpoint/v1`` family), so
    the plan needs a store; heartbeats land in the store-adjacent lease
    table the shard fleet shares.
    """
    if args.checkpoint_every <= 0:
        return None
    if store is None:
        raise SystemExit(
            "--checkpoint-every needs the result store (drop --no-cache)")
    from .checkpoint import CheckpointPlan
    from .service.shard import lease_dir

    return CheckpointPlan(
        store_root=str(store.root), every=args.checkpoint_every,
        lease_root=str(lease_dir(store.root)), ledger_path=args.ledger)


def _add_trace_flags(p: argparse.ArgumentParser) -> None:
    """The shared tracing options."""
    p.add_argument("--trace", metavar="PATH",
                   help="write the span/metrics trace to this JSONL file "
                        "(default REPRO_TRACE_PATH or "
                        "~/.cache/repro/trace.jsonl)")
    p.add_argument("--no-trace", action="store_true",
                   help="keep the trace in memory only, write no file")


def _resolve_tracer(args: argparse.Namespace, run_id: str):
    """The tracer implied by the flags (always a live tracer; with
    ``--no-trace`` it records in memory without touching disk)."""
    from .obs import Tracer, default_trace_path

    if args.no_trace:
        return Tracer(None, run_id=run_id)
    path = Path(args.trace) if args.trace else default_trace_path()
    return Tracer(path, run_id=run_id)


def _add_plane_flags(p: argparse.ArgumentParser) -> None:
    """The shared-memory population-plane options."""
    p.add_argument("--plane", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="share region asset bundles across workers through "
                        "the shared-memory population plane (default: on "
                        "when REPRO_PLANE is set; --no-plane forces off)")
    p.add_argument("--plane-dir", metavar="DIR",
                   help="plane coordination directory (default "
                        "REPRO_PLANE_DIR or a per-user temp dir)")


def _enable_plane(args: argparse.Namespace) -> bool:
    """Apply the plane flags to the environment; True when active.

    Pool workers and service shards inherit the decision through
    ``REPRO_PLANE`` / ``REPRO_PLANE_DIR``, so this must run before any
    child process is spawned.
    """
    import os

    from .plane import plane_enabled

    if args.plane_dir:
        os.environ["REPRO_PLANE_DIR"] = args.plane_dir
    if args.plane is None:
        return plane_enabled()
    if args.plane:
        os.environ["REPRO_PLANE"] = "1"
    else:
        os.environ.pop("REPRO_PLANE", None)
    return args.plane


def _fmt_bytes(n: int) -> str:
    """``141152`` -> ``'137.8 KiB'`` (stats output)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return (f"{value:,.0f} {unit}" if unit == "B"
                    else f"{value:,.1f} {unit}")
        value /= 1024
    return f"{n} B"  # pragma: no cover - unreachable


def _cmd_info(args: argparse.Namespace) -> int:
    from .cluster.machines import BRIDGES, RIVANNA
    from .scheduling.categories import category_table
    from .synthpop.regions import REGIONS, total_counties, total_population

    print(f"regions: {len(REGIONS)} (50 states + DC), "
          f"{total_counties()} counties, "
          f"{total_population() / 1e6:.0f}M residents")
    cats = category_table()
    for name, codes in cats.items():
        print(f"{name:<7} ({len(codes):>2}): {' '.join(codes)}")
    for spec in (BRIDGES, RIVANNA):
        print(f"{spec.name}: {spec.n_nodes} nodes x "
              f"{spec.cores_per_node} cores = {spec.total_cores} cores")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .synthpop import build_region_network
    from .synthpop.io import write_network_csv, write_persons_csv

    pop, net = build_region_network(args.region, scale=args.scale,
                                    seed=args.seed)
    print(f"{args.region}: {pop.size:,} persons, {net.n_edges:,} edges, "
          f"mean degree {net.mean_degree():.1f}")
    if args.output:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        p = out / f"{args.region.lower()}_persons.csv"
        e = out / f"{args.region.lower()}_network.csv"
        write_persons_csv(pop, p)
        write_network_csv(net, e)
        print(f"wrote {p} and {e}")
    return 0


def _simulate_params(args: argparse.Namespace) -> dict:
    params = {"TAU": args.tau, "SYMP": args.symp, "backend": args.backend}
    if args.sh_compliance is not None:
        params["SH_COMPLIANCE"] = args.sh_compliance
    if args.vhi_compliance is not None:
        params["VHI_COMPLIANCE"] = args.vhi_compliance
    return params


def _cmd_simulate_replicates(args: argparse.Namespace) -> int:
    """``simulate --replicates N``: one batched ensemble, N RNG streams.

    Replicates share region assets and horizon, so they form one batch
    group and ride the K-lane vectorized kernel via the standard
    memoized fan-out — each replicate still lands in the store under its
    own instance key, bit-identical to a solo run with the same seed.
    """
    import numpy as np

    from .core.parallel import InstanceSpec, run_instances
    from .obs import MetricsRegistry

    store = _resolve_store(args)
    ledger = _resolve_ledger(args)
    params = _simulate_params(args)
    specs = [
        InstanceSpec(
            region_code=args.region, params=params, n_days=args.days,
            scale=args.scale, seed=args.seed + r,
            label=f"simulate-{args.region}-r{r}", asset_seed=args.seed)
        for r in range(args.replicates)
    ]
    reg = MetricsRegistry()
    outcomes = run_instances(
        specs, store=store, ledger=ledger, parallel=False, registry=reg,
        checkpoint=_resolve_checkpoint(args, store))
    rates = np.array([o.attack_rate for o in outcomes])
    finals = [int(o.confirmed[-1]) for o in outcomes]
    print(f"{args.region}: {len(outcomes)} replicates, "
          f"attack {rates.mean():.1%} (min {rates.min():.1%}, "
          f"max {rates.max():.1%}), "
          f"confirmed {min(finals):,}..{max(finals):,}")
    print(f"batch: size={int(reg.value('batch.size'))} "
          f"groups={int(reg.value('batch.groups'))} "
          f"hits={int(reg.value('memo.hits'))} "
          f"misses={int(reg.value('memo.misses'))}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from .core.parallel import InstanceSpec
    from .store.keys import instance_key

    _enable_plane(args)
    if args.replicates > 1:
        return _cmd_simulate_replicates(args)
    store = _resolve_store(args)
    ledger = _resolve_ledger(args)
    params = _simulate_params(args)
    spec = InstanceSpec(
        region_code=args.region, params=params, n_days=args.days,
        scale=args.scale, seed=args.seed,
        label=f"simulate-{args.region}", asset_seed=args.seed)
    key = instance_key(spec, namespace=SIMULATE_NAMESPACE)

    from .obs import MetricsRegistry

    reg = MetricsRegistry()
    tracer = _resolve_tracer(args, run_id=f"simulate:{args.region}")
    with tracer, tracer.span(f"simulate:{args.region}", days=args.days,
                             seed=args.seed) as root:
        payload = store.get(key) if store is not None else None
        cached = payload is not None
        root.attrs["cached"] = cached
        if payload is None:
            from .analytics import DEATHS, summarize, target_series
            from .core.parallel import inject_worker_faults
            from .core.runner import (
                confirmed_series,
                execute_specs,
                load_region_assets,
            )
            from .resilience import RetryPolicy
            from .resilience.supervisor import supervise_map

            faults = _resolve_faults(args)
            ck_plan = _resolve_checkpoint(args, store)

            def _payload(spec, result, model):
                return {
                    # Ascertained symptomatic cases: the one meaning every
                    # other path (replicates, calibration, the service) has.
                    "confirmed": confirmed_series(result, model, spec.n_days),
                    "deaths": target_series(summarize(result, model), model,
                                            DEATHS),
                    "attack_rate": np.asarray(result.attack_rate(model)),
                    "peak_day": np.asarray(result.peak_day(model)),
                }

            def _run(item, attempt, plan):
                inject_worker_faults(item, attempt, plan, allow_exit=False,
                                     metrics=reg)
                with tracer.span("load-assets", attempt=attempt):
                    load_region_assets(args.region, args.scale, args.seed)
                with tracer.span("run-engine", attempt=attempt):
                    [(payload, lane_dump)] = execute_specs(
                        [item], plan=ck_plan, attempt=attempt, faults=plan,
                        metrics=reg, reduce=_payload)
                reg.merge(lane_dump)
                return payload

            retry = RetryPolicy(max_attempts=args.retries,
                                base_delay_s=0.05, seed=args.fault_seed)
            res = supervise_map(_run, [spec], keys=[spec.label],
                                retry=retry, faults=faults, registry=reg,
                                ledger=ledger)
            if res.quarantined:
                for rec in res.quarantined:
                    print(f"quarantined: {rec.describe()}", file=sys.stderr)
                root.attrs["quarantined"] = len(res.quarantined)
                return EXIT_QUARANTINED
            payload = res.results[0]
            if store is not None:
                store.put(key, payload)
            if ck_plan is not None:
                # Terminal result landed: the checkpoint chain is dead
                # weight now — reclaim it.
                ck_plan.manager(metrics=reg).discard(
                    instance_key(spec, salt=ck_plan.salt))
            if ledger is not None:
                ledger.instance_completed(key, label=spec.label)
        elif ledger is not None:
            ledger.cache_hit(key, label=spec.label)
        if store is not None:
            reg.merge(store.metrics)
        tracer.metrics(reg, scope="simulate")

    confirmed = payload["confirmed"]
    deaths = payload["deaths"]
    print(f"{args.region}: attack {float(payload['attack_rate']):.1%}, "
          f"peak day {int(payload['peak_day'])}, "
          f"confirmed {int(confirmed[-1]):,}, deaths {int(deaths[-1]):,}"
          + (" [store hit]" if cached else ""))
    if reg.value("checkpoint.resumed"):
        print(f"checkpoint: resumed {int(reg.value('checkpoint.resumed'))} "
              f"attempt(s), saved "
              f"{int(reg.value('checkpoint.ticks_saved'))} ticks of "
              f"re-execution")
    if args.csv:
        import csv as _csv

        with open(args.csv, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["day", "confirmed_cumulative", "deaths_cumulative"])
            for d in range(args.days + 1):
                w.writerow([d, int(confirmed[d]), int(deaths[d])])
        print(f"wrote {args.csv}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .core.calibration_wf import run_calibration_workflow

    from .obs import MetricsRegistry, global_registry

    store = _resolve_store(args)
    ledger = _resolve_ledger(args)
    tracer = _resolve_tracer(args, run_id=f"calibrate:{args.region}")
    with tracer, tracer.span(f"calibrate:{args.region}", cells=args.cells,
                             days=args.days, seed=args.seed):
        cal = run_calibration_workflow(
            args.region, n_cells=args.cells, n_days=args.days,
            scale=args.scale, seed=args.seed,
            mcmc_samples=args.samples, mcmc_burn_in=args.burn_in,
            store=store, ledger=ledger)
        # Memoized batches publish to the process-global registry (pool
        # workers ship theirs home); fold in the store's own counters.
        reg = MetricsRegistry().merge(global_registry())
        if store is not None:
            reg.merge(store.metrics)
        tracer.metrics(reg, scope="calibrate")
    tight = cal.posterior.tightening()
    post = cal.posterior.theta_samples
    print(f"{args.region}: calibrated {args.cells} cells over "
          f"{args.days} days (onset at surveillance day {cal.onset_day})")
    if store is not None:
        hits = int(store.metrics.value("store.hits"))
        misses = int(store.metrics.value("store.misses"))
        served = hits / (hits + misses) if hits + misses else 1.0
        print(f"  store: {hits} hits, {misses} misses "
              f"({served:.0%} served)")
    print(f"  pool: {int(reg.value('parallel.pool_starts'))} starts, "
          f"{int(reg.value('parallel.pool_reuses'))} reuses")
    for k, name in enumerate(cal.space.names):
        print(f"  {name:<16} posterior {post[:, k].mean():.3f} "
              f"± {post[:, k].std():.3f}  (tightening {tight[k]:.2f}x)")
    corr = cal.posterior.posterior_correlation()
    print(f"  corr(TAU, SYMP) = {corr[0, 1]:+.3f}")
    return 0


def _cmd_night(args: argparse.Namespace) -> int:
    from .core.designs import (
        calibration_design,
        economic_design,
        prediction_design,
    )
    from .core.orchestrator import orchestrate_night

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
    faults = _resolve_faults(args)
    from .resilience import DEFAULT_RETRY_POLICY, TransientError

    tracer = _resolve_tracer(args, run_id=f"night:{args.workflow}")
    with tracer:
        try:
            report = orchestrate_night(
                design, algorithm=args.algorithm, seed=args.seed,
                ledger=_resolve_ledger(args), resume=resume, tracer=tracer,
                degrade=args.degrade, min_replicates=args.min_replicates,
                faults=faults,
                retry=DEFAULT_RETRY_POLICY if faults is not None else None,
                checkpoint_every=args.checkpoint_every)
        except TransientError as exc:
            # Retries exhausted on a pipeline leg (e.g. every transfer
            # attempt failed): the night lost work — report it as a
            # quarantine-class failure, not a traceback.
            print(f"night {args.workflow}: gave up after retries — {exc}",
                  file=sys.stderr)
            return EXIT_QUARANTINED
    print(report.summary())
    return 0 if report.fits_window else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.action == "sites":
        from .resilience.faults import FAULT_SITES

        for site, desc in sorted(FAULT_SITES.items()):
            print(f"{site:<18} {desc}")
        return 0

    import numpy as np

    from .core.parallel import InstanceSpec, run_instances, supervise_instances
    from .obs import MetricsRegistry
    from .resilience import FaultPlan, RetryPolicy
    from .store.keys import instance_key

    plan = _resolve_faults(args) or FaultPlan()
    retry = RetryPolicy(max_attempts=args.max_attempts,
                        base_delay_s=args.base_delay,
                        timeout_s=args.timeout,
                        seed=args.fault_seed)
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

    # The chaos leg (only) checkpoints: the baseline must stay the clean,
    # uninterrupted reference the equivalence check compares against.
    checkpoint = None
    if args.checkpoint_every > 0:
        import tempfile

        from .checkpoint import CheckpointPlan

        ck_root = args.store_dir or tempfile.mkdtemp(prefix="repro-chaos-ck-")
        checkpoint = CheckpointPlan(store_root=str(ck_root),
                                    every=args.checkpoint_every)
        print(f"checkpoint: every {args.checkpoint_every} ticks -> {ck_root}")

    reg = MetricsRegistry()
    ledger = _resolve_ledger(args)
    res = supervise_instances(specs, parallel=parallel,
                              max_workers=args.workers, registry=reg,
                              retry=retry, faults=plan, ledger=ledger,
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
        from .store import ContentStore

        store = ContentStore(Path(args.store_dir), faults=plan)
        keys = [instance_key(s) for s in specs]
        from .store.memo import outcome_from_payload, outcome_payload

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


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import default_trace_path, export_json, summarize

    path = Path(args.path) if args.path else default_trace_path()
    if not path.exists():
        print(f"no trace at {path} (run simulate/calibrate/night first, "
              f"or pass a path)", file=sys.stderr)
        return 2
    if args.action == "summarize":
        print(summarize(path).render(top=args.top))
    else:  # export
        body = export_json(path)
        if args.output:
            Path(args.output).write_text(body + "\n", encoding="utf-8")
            print(f"wrote {args.output}")
        else:
            print(body)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .store import ContentStore, default_store

    store = (ContentStore(Path(args.dir)) if args.dir
             else default_store())
    if args.action == "stats":
        print(store.summary())
        families = store.family_counts()
        if families:
            print("families:")
            for family, count in families.items():
                print(f"  {family:<24} {count} blobs")
    elif args.action == "gc":
        removed = store.gc(args.max_bytes)
        print(f"evicted {len(removed)} blobs, "
              f"{len(store)} remain ({store.total_bytes():,} bytes)")
    elif args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} blobs from {store.root}")
    return 0


def _cmd_plane(args: argparse.Namespace) -> int:
    import os

    if getattr(args, "dir", None):
        os.environ["REPRO_PLANE_DIR"] = args.dir

    if args.action == "stats":
        from .plane import plane_stats

        stats = plane_stats()
        state = ("available" if stats["available"]
                 else f"UNAVAILABLE ({stats['disabled_reason']})")
        print(f"plane root: {stats['root']} (shm {state})")
        for seg in stats["segments"]:
            owner = (f"owner {seg['owner_pid']}"
                     + ("" if seg["owner_alive"] else " [dead]"))
            print(f"  {seg['segment']}  {seg['region_code']} "
                  f"scale={seg['scale']:g} seed={seg['seed']} "
                  f"days={seg['truth_days']}  "
                  f"{_fmt_bytes(seg['nbytes'])}  "
                  f"refs={seg['live_refs']}  {owner}")
        print(f"{len(stats['segments'])} segment(s), "
              f"{_fmt_bytes(stats['total_bytes'])} shared")
        return 0

    if args.action == "gc":
        from .plane import plane_gc

        st = plane_gc()
        print(f"reclaimed {st['reclaimed']} of {st['segments']} segment(s) "
              f"({_fmt_bytes(st['reclaimed_bytes'])}), kept {st['kept']} "
              f"with live refs, removed {st['orphans']} orphan segment(s)")
        return 0

    # build: stage bundles that outlive this process (the exit reap is
    # skipped via REPRO_PLANE_KEEP; 'repro plane gc' reclaims them).
    os.environ["REPRO_PLANE"] = "1"
    os.environ.setdefault("REPRO_PLANE_KEEP", "1")
    from .core.runner import load_region_assets
    from .obs import MetricsRegistry

    reg = MetricsRegistry()
    for region in args.regions:
        assets = load_region_assets(region, args.scale, args.seed,
                                    metrics=reg)
        print(f"{region}: {assets.pop.size:,} persons, "
              f"{assets.net.n_edges:,} edges")
    if int(reg.value("plane.fallbacks")):
        print("plane unavailable: bundles were built privately, nothing "
              "staged (check /dev/shm)", file=sys.stderr)
        return 1
    built = int(reg.value("plane.built"))
    print(f"staged {built} new segment(s) "
          f"({int(reg.value('plane.bytes')):,} bytes); "
          f"{len(args.regions) - built} already on the plane. "
          f"Segments persist until 'repro plane gc'.")
    return 0


def _surrogate_store(args: argparse.Namespace):
    """The store a ``repro surrogate`` action operates on."""
    from .store import ContentStore, default_store

    return ContentStore(Path(args.dir)) if args.dir else default_store()


def _cmd_surrogate(args: argparse.Namespace) -> int:
    import numpy as np

    from .surrogate import (
        ModelRegistry,
        build_corpus,
        corpus_ledger_path,
        train_model,
    )

    store = _surrogate_store(args)
    extra = [Path(p) for p in (args.ledger or [])]
    corpus = build_corpus(store, ledgers=extra)
    registry = ModelRegistry(store, retrain_after=args.retrain_after)

    if args.action == "stats":
        info = registry.latest_info()
        stale = registry.stale(len(corpus))
        print(f"corpus: {len(corpus)} usable runs "
              f"(journal {corpus_ledger_path(store)})")
        if info is None:
            print("model: none published")
        else:
            print(f"model: {info['key'][:12]} trained on "
                  f"{info['n_train']} runs "
                  f"(p_eta {info['p_eta']}, seed {info['seed']}, "
                  f"version {info['version']})")
        print(f"stale: {'yes — retrain recommended' if stale else 'no'}")
        return 0

    if args.action == "train":
        if not args.force and not registry.stale(len(corpus)):
            info = registry.latest_info()
            print(f"model {info['key'][:12]} is fresh "
                  f"({info['n_train']} of {len(corpus)} runs trained; "
                  f"--force to retrain anyway)")
            return 0
        try:
            model = train_model(corpus, p_eta=args.p_eta, seed=args.seed)
        except ValueError as exc:
            print(f"cannot train: {exc}", file=sys.stderr)
            return 1
        key = registry.publish(model)
        print(f"trained on {len(corpus)} runs "
              f"({model.space.d_active} active features, "
              f"p_eta {model.basis.p}); published {key[:12]}")
        return 0

    # eval: hold out every k-th run, retrain on the rest, score honestly.
    n = len(corpus)
    test_idx = np.arange(0, n, args.every)
    train_idx = np.setdiff1d(np.arange(n), test_idx)
    if len(train_idx) < 3 or len(test_idx) == 0:
        print(f"cannot eval: corpus of {n} runs is too small to split "
              f"(need >= 4 with --every {args.every})", file=sys.stderr)
        return 1
    try:
        model = train_model(corpus.subset(train_idx), p_eta=args.p_eta,
                            seed=args.seed)
    except ValueError as exc:
        print(f"cannot eval: {exc}", file=sys.stderr)
        return 1
    rel_rmse, coverage, ar_err = [], [], []
    for i in test_idx:
        pred = model.predict_features(corpus.features[i])
        truth = corpus.outputs[i]
        peak = max(float(np.max(np.abs(truth))), 1e-9)
        rel_rmse.append(
            float(np.sqrt(np.mean((pred.mean - truth) ** 2))) / peak)
        lo, hi = pred.bands()
        coverage.append(float(np.mean((truth >= lo) & (truth <= hi))))
        ar_err.append(abs(pred.attack_rate - float(corpus.attack_rates[i])))
    print(f"held-out eval: {len(train_idx)} train / {len(test_idx)} test "
          f"(every {args.every}th run held out)")
    print(f"  trajectory rel. RMSE: mean {np.mean(rel_rmse):.3f}, "
          f"max {np.max(rel_rmse):.3f}")
    print(f"  ~95% band coverage:  mean {np.mean(coverage):.1%}, "
          f"min {np.min(coverage):.1%}")
    print(f"  attack-rate |error|: mean {np.mean(ar_err):.4f}, "
          f"max {np.max(ar_err):.4f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from .service import ServiceConfig, serve, serve_fleet

    flags = {f.name for f in dataclasses.fields(ServiceConfig)} & set(
        vars(args))
    try:
        config = ServiceConfig(**{
            **{name: getattr(args, name) for name in flags},
            "inject": tuple(args.inject or ()),
            # Before any child is spawned: workers inherit the env.
            "plane": _enable_plane(args)})
    except ValueError as exc:
        raise SystemExit(str(exc))
    if config.shards > 1:
        serve_fleet(config)
    else:
        tracer = _resolve_tracer(args, run_id="serve")
        with tracer:
            serve(config, tracer=tracer)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import os

    from .service import (
        DEFAULT_PORT,
        DrainingError,
        QuarantinedError,
        QueueFullError,
        ServiceClient,
        ServiceError,
    )

    url = (args.url or os.environ.get("REPRO_SERVICE_URL")
           or f"http://127.0.0.1:{DEFAULT_PORT}")
    params: dict[str, object] = {"TAU": args.tau, "SYMP": args.symp}
    if args.sh_compliance is not None:
        params["SH_COMPLIANCE"] = args.sh_compliance
    if args.vhi_compliance is not None:
        params["VHI_COMPLIANCE"] = args.vhi_compliance
    scenario = {"region": args.region, "params": params, "days": args.days,
                "scale": args.scale, "seed": args.seed,
                "priority": args.priority}
    client = ServiceClient(url)
    try:
        adm = client.submit(scenario)
    except QueueFullError as exc:
        print(f"rejected: queue full, retry after {exc.retry_after_s:.1f}s",
              file=sys.stderr)
        return 3
    except DrainingError as exc:
        print(f"rejected: service draining ({exc})", file=sys.stderr)
        return 3
    except QuarantinedError as exc:
        print(f"quarantined: {exc}", file=sys.stderr)
        return EXIT_QUARANTINED
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"{adm['id']}: {adm['status']} "
          f"(key {adm['key'][:12]}, depth {adm['depth']})")
    if args.no_wait:
        return 0
    try:
        view = client.wait(adm["id"], timeout_s=args.timeout,
                           poll_s=args.poll)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if view["state"] == "done":
        result = view["result"]
        confirmed = result["confirmed"]
        source = result.get("source", "exact")
        print(f"{args.region}: attack {float(result['attack_rate']):.1%}, "
              f"confirmed {int(confirmed[-1]):,} "
              f"({view['total_s']:.2f}s, {source}"
              + (", coalesced)" if view.get("coalesced") else ")"))
        if source == "surrogate":
            lo = result["confirmed_lo"]
            hi = result["confirmed_hi"]
            print(f"  ~95% band on final confirmed: "
                  f"[{int(lo[-1]):,}, {int(hi[-1]):,}] "
                  f"(rtol {float(result['rtol']):.3f})")
        return 0
    print(f"{view['state']}: {view.get('error', 'no detail')}",
          file=sys.stderr)
    return EXIT_QUARANTINED


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import os

    from .service import DEFAULT_PORT, ServiceClient, ServiceError

    url = (args.url or os.environ.get("REPRO_SERVICE_URL")
           or f"http://127.0.0.1:{DEFAULT_PORT}")
    client = ServiceClient(url)
    cursor = args.cursor
    shown = 0
    try:
        while True:
            page = client.list(state=args.state, limit=args.limit,
                               cursor=cursor)
            for view in page["scenarios"]:
                line = (f"{view['id']}  {view['state']:<9} "
                        f"key {view['key'][:12]}  prio {view['priority']}")
                if view.get("coalesced"):
                    line += "  (coalesced)"
                if view.get("total_s") is not None:
                    line += f"  {view['total_s']:.2f}s"
                if view.get("error"):
                    line += f"  error: {view['error']}"
                print(line)
                shown += 1
            cursor = page.get("next_cursor")
            if not args.all or not cursor:
                break
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if cursor:
        print(f"-- more: --cursor {cursor}")
    print(f"{shown} scenario(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable epidemiological workflows (IPDPS 2021 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="regions, categories, machine specs")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("synth", help="build a region's synthetic inputs")
    p.add_argument("region")
    p.add_argument("--scale", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="directory for CSV outputs")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("simulate", help="run EpiHiper for one region")
    p.add_argument("region")
    p.add_argument("--days", type=int, default=120)
    p.add_argument("--scale", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=0.18)
    p.add_argument("--symp", type=float, default=0.65)
    p.add_argument("--sh-compliance", type=float)
    p.add_argument("--vhi-compliance", type=float)
    p.add_argument("--backend", choices=("dense", "frontier", "auto"),
                   default="auto",
                   help="transmission kernel (result-identical; A/B timing)")
    p.add_argument("--replicates", type=int, default=1,
                   help="run N replicates (seeds seed..seed+N-1) as one "
                        "batched ensemble; each replicate is cached "
                        "under its own key (default 1)")
    p.add_argument("--csv", help="write the daily series to this file "
                                 "(single-replicate runs only)")
    p.add_argument("--inject", action="append", metavar="SITE[:k=v,...]",
                   help="inject worker faults (see 'repro chaos sites'); "
                        "exit code 4 when the run is quarantined")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="fault-plan + backoff-jitter seed")
    p.add_argument("--retries", type=int, default=1,
                   help="attempts before quarantining the run (default 1)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   metavar="N",
                   help="snapshot in-flight state every N ticks through "
                        "the result store so retries resume instead of "
                        "restarting from tick 0 (default 0 = off; needs "
                        "the store)")
    _add_cache_flags(p)
    _add_trace_flags(p)
    _add_plane_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="run the calibration workflow")
    p.add_argument("region")
    p.add_argument("--cells", type=int, default=30)
    p.add_argument("--days", type=int, default=80)
    p.add_argument("--scale", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=800)
    p.add_argument("--burn-in", type=int, default=600)
    _add_cache_flags(p)
    _add_trace_flags(p)
    p.set_defaults(func=_cmd_calibrate)

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
    p.add_argument("--inject", action="append", metavar="SITE[:k=v,...]",
                   help="inject faults (transfer.fail, ledger.torn); "
                        "repeatable — see 'repro chaos sites'")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="fault-plan seed (deterministic firing)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   metavar="N",
                   help="model remote jobs snapshotting every N simulated "
                        "days: the per-task write cost inflates the "
                        "projected makespan before the window-fit check "
                        "(default 0 = off)")
    _add_cache_flags(p)
    _add_trace_flags(p)
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

    p = sub.add_parser(
        "serve", help="run the always-on scenario service (HTTP API)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8377,
                   help="TCP port (0 picks an ephemeral one; default 8377)")
    p.add_argument("--port-file", metavar="PATH",
                   help="write the bound port here after listening "
                        "(for supervisors and smoke tests)")
    p.add_argument("--capacity", type=int, default=64,
                   help="max distinct queued scenarios before 429s")
    p.add_argument("--aging-every", type=int, default=8,
                   help="admissions per +1 priority boost of waiting work")
    p.add_argument("--batch-size", type=int, default=4,
                   help="scenarios per supervised fan-out batch")
    p.add_argument("--shards", type=int, default=1,
                   help="run N sharded worker processes behind a router "
                        "(scenarios are sharded by cache-key hash; needs "
                        "the shared result store)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size for each batch")
    p.add_argument("--serial", action="store_true",
                   help="in-process execution (no process pool)")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="per-scenario attempts before a request fails")
    p.add_argument("--inject", action="append", metavar="SITE[:k=v,...]",
                   help="service chaos drill: inject worker faults")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--surrogate", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="answer confident repeat-family scenarios from the "
                        "trained emulator (see 'repro surrogate train'); "
                        "uncertain or out-of-distribution requests still "
                        "run exactly")
    p.add_argument("--surrogate-rtol", type=float, default=0.05,
                   help="relative-uncertainty gate: serve from the "
                        "surrogate only when mean predictive sd / peak "
                        "trajectory is below this (default 0.05)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   metavar="N",
                   help="snapshot in-flight scenarios every N ticks "
                        "through the result store so retries after "
                        "mid-run worker deaths resume instead of "
                        "restarting (default 0 = off; needs the store)")
    _add_cache_flags(p)
    _add_trace_flags(p)
    _add_plane_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a scenario to a running service")
    p.add_argument("region")
    p.add_argument("--days", type=int, default=120)
    p.add_argument("--scale", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=0.18)
    p.add_argument("--symp", type=float, default=0.65)
    p.add_argument("--sh-compliance", type=float)
    p.add_argument("--vhi-compliance", type=float)
    p.add_argument("--priority", type=int, default=0,
                   help="larger is more urgent (coalescing joins can "
                        "re-prioritize queued work)")
    p.add_argument("--url",
                   help="service base URL (default REPRO_SERVICE_URL or "
                        "http://127.0.0.1:8377)")
    p.add_argument("--no-wait", action="store_true",
                   help="print the request id and return immediately")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for a terminal state")
    p.add_argument("--poll", type=float, default=0.2,
                   help="poll interval in seconds")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "scenarios", help="inspect a running service's requests")
    scsub = p.add_subparsers(dest="action", required=True)
    sp = scsub.add_parser("list", help="list tracked requests (paginated)")
    sp.add_argument("--state",
                    choices=["queued", "running", "done", "failed",
                             "cancelled"],
                    help="only requests in this state")
    sp.add_argument("--limit", type=int, default=50,
                    help="page size (max 500)")
    sp.add_argument("--cursor",
                    help="resume after this request id (keyset pagination)")
    sp.add_argument("--all", action="store_true",
                    help="follow next_cursor to the end of the registry")
    sp.add_argument("--url",
                    help="service base URL (default REPRO_SERVICE_URL or "
                         "http://127.0.0.1:8377)")
    sp.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("trace", help="summarize or export a run trace")
    tsub = p.add_subparsers(dest="action", required=True)
    sp = tsub.add_parser("summarize", help="per-night text report")
    sp.add_argument("path", nargs="?",
                    help="trace file (default: where the last traced "
                         "command wrote)")
    sp.add_argument("--top", type=int, default=10,
                    help="how many slowest spans to list")
    sp.set_defaults(func=_cmd_trace)
    sp = tsub.add_parser("export", help="JSON export for dashboards")
    sp.add_argument("path", nargs="?",
                    help="trace file (default: where the last traced "
                         "command wrote)")
    sp.add_argument("-o", "--output", help="write JSON here, not stdout")
    sp.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "surrogate",
        help="train, inspect or evaluate the scenario emulator")
    usub = p.add_subparsers(dest="action", required=True)
    for action, desc in (
            ("train", "fit + publish a model over the run corpus"),
            ("stats", "corpus size, latest model, staleness"),
            ("eval", "held-out accuracy of a freshly trained model")):
        sp = usub.add_parser(action, help=desc)
        sp.add_argument("--dir", metavar="DIR",
                        help="store directory (default REPRO_STORE_DIR "
                             "or ~/.cache/repro/store)")
        sp.add_argument("--ledger", action="append", metavar="PATH",
                        help="extra run ledger(s) to replay into the "
                             "corpus (the store's own surrogate journal "
                             "is always included)")
        sp.add_argument("--seed", type=int, default=0,
                        help="training seed (fits are reproducible)")
        sp.add_argument("--p-eta", type=int, default=5,
                        help="output-basis size (default 5)")
        sp.add_argument("--retrain-after", type=int, default=32,
                        help="corpus growth beyond the trained set that "
                             "marks the model stale (default 32)")
        if action == "train":
            sp.add_argument("--force", action="store_true",
                            help="retrain even when the model is fresh")
        if action == "eval":
            sp.add_argument("--every", type=int, default=5,
                            help="hold out every Nth run (default 5)")
        sp.set_defaults(func=_cmd_surrogate)

    p = sub.add_parser("store", help="inspect or maintain the result store")
    ssub = p.add_subparsers(dest="action", required=True)
    for action, desc in (("stats", "blob count, bytes, session counters"),
                         ("gc", "evict least-recently-used blobs"),
                         ("clear", "delete every stored blob")):
        sp = ssub.add_parser(action, help=desc)
        sp.add_argument("--dir", metavar="DIR",
                        help="store directory (default REPRO_STORE_DIR "
                             "or ~/.cache/repro/store)")
        if action == "gc":
            sp.add_argument("--max-bytes", type=int, required=True,
                            help="size bound to evict down to")
        sp.set_defaults(func=_cmd_store)

    p = sub.add_parser(
        "plane", help="inspect or manage the shared-memory population plane")
    psub = p.add_subparsers(dest="action", required=True)
    for action, desc in (
            ("stats", "staged segments, shared bytes, live refs"),
            ("gc", "reclaim unreferenced and orphaned segments"),
            ("build", "pre-stage region bundles that outlive this process")):
        sp = psub.add_parser(action, help=desc)
        sp.add_argument("--dir", metavar="DIR",
                        help="plane coordination directory (default "
                             "REPRO_PLANE_DIR or a per-user temp dir)")
        if action == "build":
            sp.add_argument("regions", nargs="+", metavar="REGION")
            sp.add_argument("--scale", type=float, default=1e-3,
                            help="population scale (default 1e-3, matching "
                                 "'repro simulate')")
            sp.add_argument("--seed", type=int, default=0,
                            help="asset seed (default 0, matching "
                                 "'repro simulate')")
        sp.set_defaults(func=_cmd_plane)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
