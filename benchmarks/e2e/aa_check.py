"""A/A check: do runs of the *same code* agree within the bounds?

    python3 benchmarks/e2e/aa_check.py --sets 3 --runs 5

Runs every workload ``runs`` times per set (a fresh ``--seed`` each run,
workloads interleaved so drift on the host hits them alike), prints each
end-to-end metric's set medians and quartiles, and fails if

- any pair of set medians differs by more than **half** the metric's
  bound (two sets of one commit must not look like a regression), or
- a set's own spread (IQR / median of its runs) exceeds the bound, or
- any run reported a failed operation.

The bounds are proven here, not assumed: a metric that cannot pass is
demoted to the per-layer list rather than given a wider bound.
"""

from __future__ import annotations

import argparse
import itertools
import subprocess
import sys
import time
from pathlib import Path

import metricdefs
from harness import OUT_DIR, load_set, quartiles, spread

RUN_PY = Path(__file__).resolve().with_name("run.py")


def run_sets(args) -> list[Path]:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    paths = []
    for s in range(args.sets):
        path = Path(args.out_dir) / f"aa-{stamp}-set{s + 1}.jsonl"
        paths.append(path)
        for r in range(args.runs):
            for workload in args.workloads:
                seed = args.first_seed + s * args.runs + r
                cmd = [sys.executable, str(RUN_PY), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", "0", "--out", str(path)]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                last = (proc.stdout.strip().splitlines() or ["<no output>"])
                print(f"# set {s + 1} run {r + 1} {workload} seed {seed} "
                      f"exit {proc.returncode}", file=sys.stderr, flush=True)
                if proc.returncode != 0:
                    print(proc.stderr[-2000:], file=sys.stderr)
                    print(last[-1][:300], file=sys.stderr)
    return paths


def report(sets: list[dict]) -> int:
    failures = 0
    header = (f"{'workload/metric':<36s} {'unit':>5s} {'bound':>6s}  "
              + "  ".join(f"set{i + 1} q1/median/q3 (spread)".ljust(42)
                          for i in range(len(sets)))
              + "  max pair diff  verdict")
    print(header)
    for workload in metricdefs.WORKLOADS:
        if not all(workload in s for s in sets):
            continue
        for m in metricdefs.END_TO_END:
            cols, medians, wide = [], [], False
            for s in sets:
                values = s[workload][m.name]
                q1, q2, q3 = quartiles(values)
                medians.append(q2)
                sp = spread(values)
                # setup_s is a median of fresh processes already; its
                # run-to-run spread is reported but only medians gate it.
                wide |= sp > m.bound and m.name != "setup_s"
                cols.append(f"{q1:.5g}/{q2:.5g}/{q3:.5g} ({sp:.1%})"
                            .ljust(42))
            diff = max((abs(a - b) / min(a, b)
                        for a, b in itertools.combinations(medians, 2)),
                       default=0.0)
            ok = diff <= m.bound / 2 and not wide
            failures += not ok
            print(f"{workload + '/' + m.name:<36s} {m.unit:>5s} "
                  f"{m.bound:>6.2f}  " + "  ".join(cols)
                  + f"  {diff:>12.2%}   {'ok' if ok else 'FAIL'}")
        failed = sum(sum(s[workload]["_failed"]) for s in sets)
        runs = sum(len(s[workload]["_failed"]) for s in sets)
        failures += failed > 0
        print(f"{workload + '/failed':<36s} {failed} failed operations "
              f"in {runs} runs   {'ok' if failed == 0 else 'FAIL'}")
    print(f"\nA/A verdict: {'PASS' if failures == 0 else 'FAIL'} "
          f"({failures} failing rows); claim: none — this measures "
          f"agreement of one commit with itself.")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=3)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=float,
                    default=float(metricdefs.RUN_SECONDS))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+",
                    default=list(metricdefs.WORKLOADS),
                    choices=list(metricdefs.WORKLOADS))
    ap.add_argument("--out-dir", default=str(OUT_DIR))
    ap.add_argument("--load", nargs="+", metavar="JSONL",
                    help="report on existing result sets instead of running")
    args = ap.parse_args(argv)
    paths = [Path(p) for p in args.load] if args.load else run_sets(args)
    print("result sets: " + " ".join(p.name for p in paths))
    return report([load_set(p) for p in paths])


if __name__ == "__main__":
    raise SystemExit(main())
