"""``trace``, ``surrogate`` and ``store``: inspect and maintain the
trace, the emulator and the result store."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import options


def _cmd_trace(args: argparse.Namespace) -> int:
    from ..obs import default_trace_path, export_json, summarize

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
    from ..store import open_store

    store = open_store(args.dir)
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


def _cmd_surrogate(args: argparse.Namespace) -> int:
    import numpy as np

    from ..store import open_store
    from ..surrogate import (
        ModelRegistry,
        build_corpus,
        corpus_ledger_path,
        train_model,
    )

    store = open_store(args.dir)
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


def add_parsers(sub) -> None:
    """Add ``trace``, ``surrogate`` and ``store``."""
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
