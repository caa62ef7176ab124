#!/usr/bin/env python3
"""Collect per-harness "procoup-sweep/1" reports into BENCH_sweep.json.

Each runner-based harness writes one sweep report per invocation via
--sweep-report (see src/procoup/exp/harness.hh). scripts/run_all.sh
runs every harness in three configurations — legacy (jobs=1 with the
compile cache off), jobs=1, and jobs=N — and this script merges the
reports into a single BENCH_sweep.json summarizing wall-clock per
harness per configuration and the compile-cache hit rate.

Usage:
  collect_sweep.py --out BENCH_sweep.json REPORT.json...
      Merge reports. Each report's configuration is inferred from its
      "jobs" and "compile_cache.enabled" fields.
  collect_sweep.py --check REPORT.json...
      Validate reports with check_stats_schema.py's sweep-report
      validator, the one that --sweep-report runs, and exit non-zero
      on any violation (used by ctest's sweep_collect_smoke).
"""

import argparse
import json

import check_stats_schema as schema


def load(path):
    doc = schema.load(path, "sweep report")
    schema.require(schema.validate_sweep_report, doc, path)
    return doc


def config_name(doc):
    if not doc["compile_cache"]["enabled"]:
        return "legacy"  # serial, cold compile per point
    return f"jobs{doc['jobs']}"


def merge(reports):
    harnesses = {}
    for doc in reports:
        entry = harnesses.setdefault(doc["harness"],
                                     {"points": doc["points"],
                                      "configs": {}})
        entry["configs"][config_name(doc)] = {
            "jobs": doc["jobs"],
            "wall_ms": doc["wall_ms"],
            "point_wall_ms_total": doc["point_wall_ms_total"],
            "compile_cache": doc["compile_cache"],
        }

    summary = {}
    for name, entry in sorted(harnesses.items()):
        cfgs = entry["configs"]
        s = {"points": entry["points"], "configs": cfgs}
        legacy = cfgs.get("legacy")
        parallel = [c for k, c in cfgs.items()
                    if k != "legacy" and c["jobs"] > 1]
        if legacy and parallel:
            best = min(parallel, key=lambda c: c["wall_ms"])
            if best["wall_ms"] > 0:
                s["speedup_vs_legacy"] = round(
                    legacy["wall_ms"] / best["wall_ms"], 2)
        summary[name] = s
    return {"schema": "procoup-sweep-bundle/1", "harnesses": summary}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", help="write merged BENCH_sweep.json here")
    ap.add_argument("--check", action="store_true",
                    help="validate only, no merge output")
    ap.add_argument("reports", nargs="+")
    args = ap.parse_args()

    reports = [load(p) for p in args.reports]
    if args.check:
        print(f"ok: {len(reports)} sweep reports validated")
        return
    if not args.out:
        ap.error("--out or --check required")
    merged = merge(reports)
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out} ({len(merged['harnesses'])} harnesses, "
          f"{len(reports)} reports)")


if __name__ == "__main__":
    main()
