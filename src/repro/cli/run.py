"""``info``, ``synth``, ``simulate`` and ``calibrate``: run the model,
cached through the result store and traced by default."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import EXIT_QUARANTINED, options


def _cmd_info(args: argparse.Namespace) -> int:
    from ..cluster.machines import BRIDGES, RIVANNA
    from ..scheduling.categories import category_table
    from ..synthpop.regions import REGIONS, total_counties, total_population

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
    from ..synthpop import build_region_network
    from ..synthpop.io import write_network_csv, write_persons_csv

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


def _cmd_simulate(args: argparse.Namespace) -> int:
    """``simulate``: N >= 1 replicates (seeds seed..seed+N-1) as one
    batch group on the memoized fan-out.  A single run is replicate 0,
    under the same key, so either is a store hit for the other."""
    import numpy as np

    from ..analytics import DEATHS, target_series
    from ..analytics.targets import INFECTIOUS_CENSUS, peak_demand
    from ..core.parallel import InstanceSpec, supervise_instances
    from ..core.runner import model_for_params
    from ..obs import MetricsRegistry
    from ..resilience import RetryPolicy

    if args.replicates > 1 and args.csv:
        print("--csv writes a single run's series; it does not combine "
              "with --replicates", file=sys.stderr)
        return 2
    store = options.resolve_store(args)
    ledger = options.resolve_ledger(args)
    params = options.scenario_params(args)
    reg = MetricsRegistry()
    tracer = options.resolve_tracer(args, run_id=f"simulate:{args.region}")
    n = max(args.replicates, 1)
    specs = [
        InstanceSpec(
            region_code=args.region, params=params, n_days=args.days,
            scale=args.scale, seed=args.seed + r,
            label=f"simulate-{args.region}" + (f"-r{r}" if n > 1 else ""),
            asset_seed=args.seed)
        for r in range(n)
    ]
    with tracer, tracer.span(f"simulate:{args.region}", days=args.days,
                             seed=args.seed, replicates=n) as root:
        res = supervise_instances(
            specs, store=store, ledger=ledger, parallel=False, registry=reg,
            retry=RetryPolicy.from_flags(args.retries, args.fault_seed),
            faults=options.resolve_faults(args),
            checkpoint=options.resolve_checkpoint(args, store),
            summary=True)
        cached = root.attrs["cached"] = reg.value("memo.hits") == n
        if res.quarantined:
            root.attrs["quarantined"] = len(res.quarantined)
        if store is not None:
            reg.merge(store.metrics)
        tracer.metrics(reg, scope="simulate")
    if res.quarantined:
        for rec in res.quarantined:
            print(f"quarantined: {rec.describe()}", file=sys.stderr)
        return EXIT_QUARANTINED
    outcomes = res.results
    if n > 1:
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

    [outcome] = outcomes
    model = model_for_params(params)
    confirmed = outcome.confirmed
    deaths = target_series(outcome.summary, model, DEATHS)
    peak_day, _peak = peak_demand(outcome.summary, model, INFECTIOUS_CENSUS)
    print(f"{args.region}: attack {outcome.attack_rate:.1%}, "
          f"peak day {peak_day}, "
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
    from ..core.calibration_wf import run_calibration_workflow
    from ..obs import MetricsRegistry, global_registry

    store = options.resolve_store(args)
    ledger = options.resolve_ledger(args)
    tracer = options.resolve_tracer(args, run_id=f"calibrate:{args.region}")
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


def add_parsers(sub) -> None:
    """Add ``info``, ``synth``, ``simulate`` and ``calibrate``."""
    p = sub.add_parser("info", help="regions, categories, machine specs")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("synth", help="build a region's synthetic inputs")
    p.add_argument("region")
    p.add_argument("--scale", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="directory for CSV outputs")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("simulate", help="run EpiHiper for one region")
    options.add_scenario_flags(p)
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
    options.add_cache_flags(p)
    options.add_trace_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="run the calibration workflow")
    p.add_argument("region")
    p.add_argument("--cells", type=int, default=30)
    p.add_argument("--days", type=int, default=80)
    p.add_argument("--scale", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=800)
    p.add_argument("--burn-in", type=int, default=600)
    options.add_cache_flags(p)
    options.add_trace_flags(p)
    p.set_defaults(func=_cmd_calibrate)
