#!/usr/bin/env python3
"""Distill google-benchmark JSON from micro_speed into BENCH_core.json.

scripts/run_all.sh runs `micro_speed --benchmark_format=json
--benchmark_repetitions=3` and feeds the output here. The raw report is
verbose (per-iteration detail, context block, one entry per repetition
plus aggregates); this script keeps the fields that matter for
tracking simulator core throughput over time: the median and min
real_time over the repetitions of each benchmark, the simulated-cycle
counters emitted by the BM_Simulate* family and the median
simulated-cycles-per-second rate, and the context a reader needs to
judge the numbers: the host's CPU count and the build type of the code
under test (micro_speed's procoup_build_type; the report's own
library_build_type is Google Benchmark's).

Usage:
  collect_core.py --out BENCH_core.json RAW.json
  collect_core.py --check RAW.json
      Validate that the report parses, names procoup's build type, and
      that every BM_Simulate* entry carries the sim_cycles/
      cycles_per_sec counters; exit non-zero otherwise.
"""

import argparse
import json
import statistics
import sys

CONTEXT_KEYS = ("date", "host_name", "num_cpus", "procoup_build_type")


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if "benchmarks" not in doc or not isinstance(doc["benchmarks"], list):
        fail(f"{path}: not a google-benchmark JSON report "
             f"(missing 'benchmarks' list)")
    if not doc.get("context", {}).get("procoup_build_type"):
        fail(f"{path}: context does not name procoup_build_type")
    return doc


def distill(doc, path):
    runs = {}
    for b in doc["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue  # keep raw repetitions only; we aggregate below
        name = b.get("name")
        if not name or "real_time" not in b:
            fail(f"{path}: benchmark entry without name/real_time")
        entry = runs.setdefault(name, {
            "time_unit": b.get("time_unit", "ns"),
            "real_time": [],
        })
        entry["real_time"].append(b["real_time"])
        if name.startswith("BM_Simulate"):
            for key in ("sim_cycles", "cycles_per_sec"):
                if key not in b:
                    fail(f"{path}: {name} is missing the '{key}' "
                         f"counter")
            entry["sim_cycles"] = b["sim_cycles"]
            entry.setdefault("cycles_per_sec", []).append(
                b["cycles_per_sec"])

    for entry in runs.values():
        times = entry.pop("real_time")
        entry["repetitions"] = len(times)
        entry["real_time_median"] = statistics.median(times)
        entry["real_time_min"] = min(times)
        if "cycles_per_sec" in entry:
            entry["cycles_per_sec_median"] = statistics.median(
                entry.pop("cycles_per_sec"))
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", help="write distilled BENCH_core.json here")
    ap.add_argument("--check", action="store_true",
                    help="validate only, no output file")
    ap.add_argument("report")
    args = ap.parse_args()

    doc = load(args.report)
    distilled = distill(doc, args.report)
    if not distilled:
        fail(f"{args.report}: no benchmark entries")
    if args.check:
        print(f"ok: {len(distilled)} benchmarks validated")
        return
    if not args.out:
        ap.error("--out or --check required")
    bundle = {
        "schema": "procoup-core-bench/2",
        "context": {k: doc["context"].get(k) for k in CONTEXT_KEYS},
        "benchmarks": distilled,
    }
    with open(args.out, "w") as f:
        json.dump(bundle, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out} ({len(distilled)} benchmarks)")


if __name__ == "__main__":
    main()
