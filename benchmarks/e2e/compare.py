"""Compare two result sets: one row per workload x end-to-end metric.

    python3 benchmarks/e2e/compare.py parent.jsonl change.jsonl

A result set is what ``run.py --out FILE`` appends to (``aa_check.py``
writes one per set).  Each row gives both medians and quartiles and one
verdict, following choosing-metrics §6.5:

- **unresolved** — either side's own spread (IQR / median) is wider than
  the metric's bound, so a move inside the bound cannot be told from
  noise; *unless* every run of the change reads better than every run of
  the parent (then: improved).
- **regressed** — the change's median is worse than the parent's by more
  than the bound.
- **improved** — the change's median is better by more than the distance
  between the parent's own quartiles.
- **unchanged** — anything else.

A verdict of *improved* here is not yet a claimed gain: §8 also wants at
least ten alternating pairs with the change winning nine tenths of them.
Exit code 1 when any row regressed.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import metricdefs
from harness import load_set, quartiles, spread


def verdict(m: metricdefs.EndToEnd, base: list[float],
            cand: list[float]) -> str:
    sign = 1.0 if m.better == "higher" else -1.0
    b1, b2, b3 = quartiles(base)
    _c1, c2, _c3 = quartiles(cand)
    gain = sign * (c2 - b2)  # positive = the change is better
    if max(spread(base), spread(cand)) > m.bound:
        every_better = min(sign * c for c in cand) > max(sign * b
                                                         for b in base)
        return "improved" if every_better else "unresolved"
    if -gain > m.bound * b2:
        return "regressed"
    if gain > (b3 - b1):
        return "improved"
    return "unchanged"


def compare(base: dict, cand: dict) -> list[tuple]:
    rows = []
    for workload in metricdefs.WORKLOADS:
        if workload not in base or workload not in cand:
            continue
        for m in metricdefs.END_TO_END:
            b, c = base[workload][m.name], cand[workload][m.name]
            rows.append((f"{workload}/{m.name}", m, quartiles(b),
                         quartiles(c), verdict(m, b, c)))
        failed = (sum(base[workload]["_failed"]),
                  sum(cand[workload]["_failed"]))
        rows.append((f"{workload}/failed", None, failed, failed,
                     "regressed" if failed[1] > failed[0] else "unchanged"))
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    rows = compare(load_set(args.parent), load_set(args.change))
    print(f"{'workload/metric':<36s} {'unit':>5s} {'better':>6s} "
          f"{'bound':>5s}  {'parent q1/median/q3':<30s} "
          f"{'change q1/median/q3':<30s} {'change':>8s}  verdict")
    for name, m, b, c, v in rows:
        if m is None:
            print(f"{name:<36s} {'count':>5s} {'lower':>6s} {'0':>5s}  "
                  f"{b[0]:<30d} {c[1]:<30d} {'':>8s}  {v}")
            continue
        fmt = "{:.5g}/{:.5g}/{:.5g}"
        print(f"{name:<36s} {m.unit:>5s} {m.better:>6s} {m.bound:>5.2f}  "
              f"{fmt.format(*b):<30s} {fmt.format(*c):<30s} "
              f"{(c[1] - b[1]) / b[1]:>+8.1%}  {v}")
    return 1 if any(v == "regressed" for *_rest, v in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
