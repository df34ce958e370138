"""``serve``, ``submit`` and ``scenarios``: the scenario service and its
clients (``serve``'s flags are the fields of ``ServiceConfig``)."""

from __future__ import annotations

import argparse
import sys

from . import EXIT_QUARANTINED, options


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from ..service import ServiceConfig, serve

    flags = {f.name for f in dataclasses.fields(ServiceConfig)} & set(
        vars(args))
    try:
        config = ServiceConfig(**{
            **{name: getattr(args, name) for name in flags},
            "inject": tuple(args.inject or ())})
    except ValueError as exc:
        raise SystemExit(str(exc))
    tracer = options.resolve_tracer(args, run_id="serve")
    with tracer:
        serve(config, tracer=tracer)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from ..service import (
        DrainingError,
        QuarantinedError,
        QueueFullError,
        ServiceClient,
        ServiceError,
    )

    scenario = {"region": args.region, "days": args.days,
                "scale": args.scale, "seed": args.seed,
                "params": options.scenario_params(args),
                "priority": args.priority}
    client = ServiceClient(args.url)
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
    from ..service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
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


def add_parsers(sub) -> None:
    """Add ``serve``, ``submit`` and ``scenarios``."""
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
    options.add_cache_flags(p)
    options.add_trace_flags(p)
    options.add_plane_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a scenario to a running service")
    options.add_scenario_flags(p)
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
