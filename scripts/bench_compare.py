#!/usr/bin/env python3
"""Compare perfbench runs of a parent commit and a change.

    python3 scripts/bench_compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one perfbench result line per run (the last line of
`perfbench/run.py`'s standard output). Runs are paired by line number,
so alternate which side runs first when collecting them.

For every end-to-end metric in BENCHMARK.json it prints the parent and
change medians with their quartiles, the change/parent ratio, the pairs
the change won (ties count for neither side) and a verdict:

  worse       the change median is worse than the parent median by more
              than the metric's bound;
  unresolved  either side's quartile spread is wider than the bound, and
              not every change run beats every parent run;
  gain        the change wins at least 9 of 10 pairs and the medians
              differ by more than the parent's quartile spread;
  same        none of the above.

It then prints failed/attempted for each side. Exit status 1 if any
metric is worse or the change fails a larger share of its points.
"""

import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quantile(values, q):
    """Linear-interpolated quantile of @p values at @p q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def cell(values):
    return "%.4g [%.4g, %.4g]" % (statistics.median(values),
                                  quantile(values, 0.25),
                                  quantile(values, 0.75))


def load_runs(path):
    runs = []
    for line in pathlib.Path(path).read_text().splitlines():
        if line.strip():
            runs.append(json.loads(line))
    if not runs:
        sys.exit("%s: no result lines" % path)
    return runs


def metric_values(runs, name):
    return [r["metrics"][name]["value"] if name in r.get("metrics", {})
            else None for r in runs]


def verdict(parent, change, pairs, better, bound):
    """@return (verdict, change wins) for one metric."""
    lower = better == "lower"

    def beats(c, p):
        return c < p if lower else c > p

    mp, mc = statistics.median(parent), statistics.median(change)
    q1p, q3p = quantile(parent, 0.25), quantile(parent, 0.75)
    q1c, q3c = quantile(change, 0.25), quantile(change, 0.75)
    wins = sum(1 for p, c in pairs if beats(c, p))

    limit = mp * (1 + bound) if lower else mp * (1 - bound)
    if beats(limit, mc):
        return "worse", wins
    spread_wide = (q3p - q1p) > bound * abs(mp) or \
        (q3c - q1c) > bound * abs(mc)
    dominates = all(beats(c, p) for c in change for p in parent)
    if spread_wide and not dominates:
        return "unresolved", wins
    gap = (mp - mc) if lower else (mc - mp)
    if pairs and wins * 10 >= 9 * len(pairs) and gap > q3p - q1p:
        return "gain", wins
    return "same", wins


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: bench_compare.py PARENT.jsonl CHANGE.jsonl")
    parent_runs, change_runs = load_runs(argv[1]), load_runs(argv[2])
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]

    print("%d parent runs, %d change runs, %d pairs"
          % (len(parent_runs), len(change_runs),
             min(len(parent_runs), len(change_runs))))
    header = "%-14s %-8s %-34s %-34s %7s %7s  %s" % (
        "metric", "unit", "parent median [q1, q3]",
        "change median [q1, q3]", "ratio", "wins", "verdict")
    print(header)
    print("-" * len(header))

    failed = False
    for m in metrics:
        pv = metric_values(parent_runs, m["name"])
        cv = metric_values(change_runs, m["name"])
        pairs = [(p, c) for p, c in zip(pv, cv)
                 if p is not None and c is not None]
        parent = [v for v in pv if v is not None]
        change = [v for v in cv if v is not None]
        if not parent or not change:
            print("%-14s %-8s missing on the %s side" % (
                m["name"], m["unit"], "parent" if not parent else "change"))
            failed = True
            continue
        v, wins = verdict(parent, change, pairs, m["better"], m["bound"])
        failed |= v == "worse"
        mp = statistics.median(parent)
        ratio = statistics.median(change) / mp if mp else float("nan")
        print("%-14s %-8s %-34s %-34s %7.3f %7s  %s" % (
            m["name"], m["unit"], cell(parent), cell(change), ratio,
            "%d/%d" % (wins, len(pairs)), v))

    shares = []
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        f = sum(r.get("failed", 0) for r in runs)
        a = sum(r.get("attempted", 0) for r in runs)
        shares.append(f / a if a else 0.0)
        print("%s failed/attempted: %d/%d" % (side, f, a))
    if shares[1] > shares[0]:
        print("the change fails a larger share of points")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
