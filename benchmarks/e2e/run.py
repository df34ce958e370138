"""Run one workload of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload national_solo --seed 1 \
        --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics (tracing off); ``--trace 1``
re-runs a few rounds layer by layer under in-memory spans and reports the
per-layer metrics.  Every metric is printed by name with its unit, the
outputs are checked outside the timed region, and the last stdout line is
the machine-readable result.  See README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # process start, for setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# Pin numeric libraries to one thread each before numpy loads: load comes
# from at most nproc (= 2) benchmark threads/processes, never from BLAS.
for _var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"
# All REPRO_* knobs unset: the defaults are what is measured.
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]

import harness  # noqa: E402
import metricdefs  # noqa: E402

sys.path.insert(0, str(harness.SRC_DIR))

#: Fresh-process set-up samples per run (this process is one of them).
SETUP_SAMPLES = 3


def load_workload(name: str):
    """The workload class, imported late so ``repro`` loads after the
    environment is pinned and inside the measured set-up."""
    import importlib

    return importlib.import_module(f"workloads.{name}").WORKLOAD


def make_workdir() -> Path:
    """A fresh scratch directory inside the checkout (never /tmp: the
    benchmark reads and writes only under its own paths)."""
    root = harness.HERE / ".work"
    root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=root))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    return workdir


def setup_sample(args) -> float:
    """Set-up time of one more fresh process (imports included)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"] + (["--smoke"] if args.smoke else []),
        capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def measure_end_to_end(wl, args, setup_s: float) -> dict:
    samples = [setup_s] + [setup_sample(args)
                           for _ in range(SETUP_SAMPLES - 1)]
    for index in range(harness.WARMUP_ROUNDS):
        wl.run_round(wl.make_round(index))
    rounds, host_clock_ms = harness.timed_rounds(
        wl.run_round, wl.make_round, seconds=args.seconds,
        first_index=harness.WARMUP_ROUNDS,
        min_rounds=2 if args.smoke else harness.MIN_ROUNDS)
    walls = [wall for wall, _inputs, _outputs in rounds]
    return {
        "rounds": rounds,
        "metrics": {
            "scenarios_per_s": harness.quiet_rate(wl.ops_per_round, walls),
            "wait_ms": 1e3 * harness.percentile(
                [wl.round_wait_s(wall, outputs)
                 for wall, _inputs, outputs in rounds], 25),
            "setup_s": harness.percentile(samples, 50),
            "peak_rss_mb": 0.0,  # filled after the checks and teardown
        },
        "diagnostics": {
            "rounds": len(rounds),
            "ops_per_round": wl.ops_per_round,
            "round_p25_s": harness.percentile(walls, 25),
            "round_p50_s": harness.percentile(walls, 50),
            "round.iqr_over_median": harness.iqr_over_median(walls),
            "round.wall_rate": wl.ops_per_round * len(walls) / sum(walls),
            "setup_samples_s": samples,
            "round_walls_s": walls,
            "host_clock_ms": host_clock_ms,
        },
    }


def measure_per_layer(wl, args) -> dict:
    for index in range(harness.WARMUP_ROUNDS):
        wl.run_round(wl.make_round(index))
    wl.reset_registry()
    rounds, host_clock_ms = harness.timed_rounds(
        wl.run_round, wl.make_round, seconds=args.seconds / 3,
        first_index=harness.WARMUP_ROUNDS,
        min_rounds=2 if args.smoke else 3)
    walls = [wall for wall, _inputs, _outputs in rounds]
    rec = harness.SpanRecorder()
    values, mismatches = wl.trace(rec, rounds)
    values["round.iqr_over_median"] = harness.iqr_over_median(walls)
    values["round.wall_rate"] = wl.ops_per_round * len(walls) / sum(walls)
    unknown = set(values) - {m.name for m in metricdefs.PER_LAYER}
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    rec.dump(harness.OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl")
    return {
        "rounds": rounds,
        "mismatches": mismatches,
        # A layer the workload never enters reads 0: that is the bypass
        # prediction, stated as a number.
        "metrics": {m.name: float(values.get(m.name, 0.0))
                    for m in metricdefs.PER_LAYER},
        "diagnostics": {"rounds": len(rounds), "spans": len(rec.spans),
                        "host_clock_ms": host_clock_ms},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(metricdefs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=float(metricdefs.RUN_SECONDS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, report setup_s, tear down (used by the "
                         "parent run to sample set-up in fresh processes)")
    ap.add_argument("--out", metavar="FILE",
                    help="append the full summary as one JSON line")
    args = ap.parse_args(argv)
    if not (harness.SRC_DIR / "repro").is_dir():
        raise SystemExit(f"{harness.SRC_DIR}/repro not found: the benchmark "
                         "builds nothing, it needs the program's source")

    prov = harness.provenance(args.seed)
    if prov["busy_host_warning"]:
        print(f"warning: load average {prov['loadavg_1m']:.2f} > "
              f"nproc {prov['nproc']}; timings will be noisy",
              file=sys.stderr)
    workdir = make_workdir()
    try:
        leak_check = harness.LeakCheck(workdir)
        wl = load_workload(args.workload)(args.seed, workdir,
                                          smoke=args.smoke)
        try:
            wl.setup()
            setup_s = time.perf_counter() - _T0
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            measured = (measure_per_layer(wl, args) if args.trace
                        else measure_end_to_end(wl, args, setup_s))
            rounds = measured.pop("rounds")
            checked, mismatches = wl.check(rounds)
            mismatches += measured.pop("mismatches", [])
        finally:
            # Server subprocess and pools go down on any failure.
            wl.teardown()
        leaks = leak_check.leaks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        measured["metrics"]["peak_rss_mb"] = harness.peak_rss_mb()
    attempted = wl.ops_per_round * len(rounds) + checked
    failed = (sum(wl.failed_ops(outputs) for _w, _i, outputs in rounds)
              + len(mismatches) + len(leaks))
    units = {m.name: m.unit
             for m in metricdefs.END_TO_END + metricdefs.PER_LAYER}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in measured["metrics"].items()},
    }
    summary = {
        "workload": wl.name, "trace": args.trace, "seconds": args.seconds,
        "smoke": args.smoke, **result,
        "failed_share": failed / attempted,
        "mismatches": mismatches[:20], "leaks": leaks[:20],
        "diagnostics": measured["diagnostics"],
        "provenance": prov,
        "claim": None,  # this benchmark measures; it claims no gain
    }
    for name, value in measured["metrics"].items():
        print(f"{wl.name}/{name:<40s} {value:>14.6g} {units[name]}")
    for name, value in measured["diagnostics"].items():
        if not isinstance(value, list):
            print(f"  {name}: {value}")
    for line in mismatches[:20] + [f"leaked: {p}" for p in leaks[:20]]:
        print(f"FAILED {line}", file=sys.stderr)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(summary) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
