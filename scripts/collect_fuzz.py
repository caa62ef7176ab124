#!/usr/bin/env python3
"""Run the fuzz_soak harness and distill it into BENCH_fuzz.json.

bench/fuzz_soak generates a contiguous range of random PCL programs
(src/procoup/gen), runs every one across all machine/mode points clean
and fault-injected on the sweep engine, differentially checks the
results, and prints a stable "key: value" summary. This script runs
that binary, parses the summary, counts the checked-in regression
corpus (tests/corpus/), and emits a "procoup-fuzz/1" document:

  * throughput: generated programs per second through the full
    differential battery;
  * mismatch counts by kind (mode, fault, sim-error) — all must be 0;
  * corpus size (pass- and xfail- entries) so growth is visible.

Usage:
  collect_fuzz.py --harness build/bench/fuzz_soak --out BENCH_fuzz.json
                  [--jobs N] [--programs N] [--first-seed N]
                  [--corpus tests/corpus]
  collect_fuzz.py --check BENCH_fuzz.json    validate an existing doc

Exits non-zero on any mismatch, a harness failure, or a malformed
document (the validator check_stats_schema.py --fuzz runs), so
scripts/run_all.sh (and CI) notice a fuzz regression.
"""

import argparse
import json
import os
import re
import subprocess
import sys

import check_stats_schema as schema

SUMMARY_KEYS = {
    "programs": int,
    "points": int,
    "wall_ms": float,
    "programs_per_sec": float,
    "mismatches_mode": int,
    "mismatches_fault": int,
    "mismatches_sim_error": int,
    "mismatches_total": int,
}


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_summary(text):
    out = {}
    for key, typ in SUMMARY_KEYS.items():
        m = re.search(rf"^{key}: ([-0-9.]+)$", text, re.M)
        if not m:
            fail(f"harness output is missing '{key}:'")
        out[key] = typ(m.group(1))
    return out


def count_corpus(corpus_dir):
    try:
        names = sorted(os.listdir(corpus_dir))
    except OSError as e:
        fail(f"{corpus_dir}: {e}")
    pcl = [n for n in names if n.endswith(".pcl")]
    return {
        "pass": sum(1 for n in pcl if n.startswith("pass-")),
        "xfail": sum(1 for n in pcl if n.startswith("xfail-")),
        "total": len(pcl),
    }


def run_harness(args):
    cmd = [args.harness]
    if args.programs:
        cmd += ["--programs", str(args.programs)]
    if args.first_seed:
        cmd += ["--first-seed", str(args.first_seed)]
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    summary = parse_summary(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{args.harness} exited {proc.returncode} "
             f"({summary['mismatches_total']} mismatch(es))")
    doc = {
        "schema": "procoup-fuzz/1",
        "first_seed": args.first_seed or 1,
        "programs": summary["programs"],
        "points": summary["points"],
        "wall_ms": summary["wall_ms"],
        "programs_per_sec": summary["programs_per_sec"],
        "mismatches": {
            "mode": summary["mismatches_mode"],
            "fault": summary["mismatches_fault"],
            "sim_error": summary["mismatches_sim_error"],
            "total": summary["mismatches_total"],
        },
        "corpus": count_corpus(args.corpus),
    }
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--harness", help="path to bench/fuzz_soak")
    ap.add_argument("--jobs", type=int, default=0)
    ap.add_argument("--programs", type=int, default=0,
                    help="override the harness's seed count")
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--corpus", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tests", "corpus"))
    ap.add_argument("--out", help="write BENCH_fuzz.json here")
    ap.add_argument("--check", metavar="FILE",
                    help="validate an existing BENCH_fuzz.json")
    args = ap.parse_args()

    if args.check:
        doc = schema.load(args.check, "fuzz document")
        schema.require(schema.validate_fuzz, doc, args.check)
        print(f"ok: {args.check} validated "
              f"({doc['programs']} programs, {doc['points']} points, "
              f"0 mismatches)")
        return 0

    if not args.harness or not args.out:
        ap.error("--harness and --out required (or --check FILE)")
    doc = run_harness(args)
    schema.require(schema.validate_fuzz, doc, args.harness)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out} ({doc['programs']} programs x "
          f"{doc['points'] // doc['programs']} points each, "
          f"{doc['programs_per_sec']} programs/sec, corpus "
          f"{doc['corpus']['total']} entries, 0 mismatches)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
