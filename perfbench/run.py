#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--update-golden]

Builds the library, procoupd and the driver from source in Release
(into .bench_build/perfbench), runs one workload in a single driver
process, checks every output against the golden digests in
perfbench/golden, and prints each metric by name with its unit. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off. --trace 1 is the separate traced run: it reports the
per-layer metrics (self time per layer, work counts, daemon counters),
its tracing overhead, and writes a Chrome trace plus a self-time table
into .bench_build/run/<workload>/.

Workloads: sim-threaded, compile-cold, service-soak. compile-cold and
service-soak generate their programs from --seed; sim-threaded runs the
fixed Table 2 grid. --smoke runs a small size of a workload in seconds.
"""

import argparse
import glob
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")
GOLDEN_DIR = os.path.join(HERE, "golden")

WORKLOADS = ("sim-threaded", "compile-cold", "service-soak")
SEEDED = ("compile-cold", "service-soak")
# Workloads whose point times vary from pass to pass by design; their
# end-to-end figures are medians (see end_to_end).
SPREAD_BY_DESIGN = ("service-soak",)
DEFAULT_SEED = 1  # seed 7 is held out for re-checking claims

# A run must end within this many seconds once the build is done; the
# first run in a fresh checkout also builds, within BUILD_BUDGET_S.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 700.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("points_per_s", "points/s"),
    ("point_ms_p50", "ms"),
    ("point_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("lang.parse_ms", "ms"),
    ("ir.frontend_ms", "ms"),
    ("ir.instrs", "count"),
    ("opt.optimize_ms", "ms"),
    ("opt.instrs_after", "count"),
    ("sched.schedule_ms", "ms"),
    ("sched.ops", "count"),
    ("sched.rows", "count"),
    ("sched.copies", "count"),
    ("sim.bind_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.mcycles_per_s", "Mcycles/s"),
    ("sim.cycles", "cycles"),
    ("sim.fu_issue_ratio", "ratio"),
    ("sim.no_ready_op_share", "ratio"),
    ("fault.overhead_ratio", "ratio"),
    ("verify.ms", "ms"),
    ("exp.cache_hit_us", "us"),
    ("exp.runner_overhead_ms", "ms"),
    ("exp.submit_encode_ms", "ms"),
    ("exp.record_encode_ms", "ms"),
    ("exp.journal_append_ms", "ms"),
    ("exp.journal_open_ms", "ms"),
    ("exp.daemon_fresh_ms", "ms"),
    ("exp.daemon_replay_ms", "ms"),
    ("exp.replay_points_per_s", "points/s"),
    ("exp.transport_overhead_ms", "ms"),
    ("exp.leases_issued", "count"),
    ("exp.leases_reassigned", "count"),
    ("exp.worker_lost", "count"),
    ("exp.daemon_compiles", "count"),
    ("exp.cache_hit_rate", "ratio"),
    ("exp.client_reconnects", "count"),
    ("trace.overhead_ms", "ms"),
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(message, code=2):
    log("perfbench: " + message)
    sys.exit(code)


def build():
    """Configure once, then build; a no-op build takes well under 1 s."""
    if not os.path.isdir(os.path.join(ROOT, "src", "procoup")):
        die("no procoup sources next to perfbench/; nothing to measure")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_BUDGET_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            die("build step failed: %s" % e)
        if done.returncode != 0:
            die("build step failed: " + " ".join(cmd))


def run_driver(args, work_dir, budget_s):
    raw_path = os.path.join(work_dir, "raw.json")
    cmd = [os.path.join(BUILD_DIR, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--work-dir", work_dir,
           "--daemon-bin", os.path.abspath(os.path.join(BUILD_DIR,
                                                        "procoupd"))]
    if args.smoke:
        cmd.append("--smoke")
    # Own session: on a timeout the whole tree (daemon and its workers
    # included) goes down together.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=max(budget_s, 10.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("driver exceeded its time budget", 3)
    if not os.path.exists(raw_path):
        die("driver exited %d without a report" % rc, 3)
    with open(raw_path) as f:
        return json.load(f)


def golden_paths(workload, seed):
    if workload in SEEDED:
        return os.path.join(GOLDEN_DIR, "%s-seed%d.json" % (workload, seed))
    return os.path.join(GOLDEN_DIR, "%s.json" % workload)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_golden(raw, args, errors):
    """Compare digests with every golden file of the workload (labels
    carry the generator seed, so files never disagree on a label) and
    counts with this seed's file. @return the number of mismatches."""
    digests = {}
    for path in sorted(glob.glob(os.path.join(GOLDEN_DIR,
                                              args.workload + "*.json"))):
        digests.update(load_json(path).get("digests", {}))
    mode = "smoke" if args.smoke else "full"
    own = golden_paths(args.workload, args.seed)
    counts = (load_json(own).get("counts", {}).get(mode, {})
              if os.path.exists(own) else {})

    bad = 0
    checked = 0
    for label, digest in sorted(raw["digests"].items()):
        if label in digests:
            checked += 1
            if digests[label] != digest:
                bad += 1
                errors.append("%s: digest %s, golden %s"
                              % (label, digest, digests[label]))
    for name, value in sorted(raw["counts"].items()):
        if name in counts and counts[name] != value:
            bad += 1
            errors.append("count %s = %r, golden %r"
                          % (name, value, counts[name]))
    log("golden: %d of %d point digests checked, %d counts checked%s"
        % (checked, len(raw["digests"]),
           len(set(counts) & set(raw["counts"])),
           "" if os.path.exists(own) else
           " (no golden file for seed %d: other points are checked for "
           "self-consistency only)" % args.seed))
    return bad


def update_golden(raw, args):
    path = golden_paths(args.workload, args.seed)
    data = load_json(path) if os.path.exists(path) else {}
    data.setdefault("digests", {}).update(raw["digests"])
    mode = "smoke" if args.smoke else "full"
    data.setdefault("counts", {}).setdefault(mode, {}).update(raw["counts"])
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    log("golden: wrote " + os.path.relpath(path, ROOT))


def quantile(values, q):
    """Linear-interpolated quantile of @p values at @p q in [0, 1]."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def fastest(samples, key=lambda x: x):
    """The fastest tenth of @p samples, at least three of them."""
    return sorted(samples, key=key)[:max(3, math.ceil(len(samples) / 10))]


def end_to_end(raw, workload):
    """The in-process workloads run one process on one CPU and every
    pass repeats identical work, so their fastest passes, and the
    fastest samples of each point, estimate the uncontended cost: shared
    hosts have phases, from a fraction of a second to minutes, in which
    a CPU runs up to 1.75x slower. A real slowdown moves the fastest
    samples too.

    On service-soak a point's time varies by design from pass to pass:
    with the worker that runs it, with whether its compiled program
    comes from that worker's memory or from the disk cache, and with
    what the daemon and the client do meanwhile. The fastest samples
    are then an extreme of that spread, and they move with the number
    of passes that fit into the run. Its figures are medians over the
    run: of the passes, and of each point's samples."""
    passes = raw["passes"]
    if workload in SPREAD_BY_DESIGN:
        chosen = passes
        per_point = lambda samples: [statistics.median(samples)]
    else:
        chosen = fastest(passes, key=lambda p: p["wall_s"])
        per_point = fastest
    point_ms = [ms for samples in zip(*(p["point_ms"] for p in passes))
                for ms in per_point(samples)]
    return {
        "setup_s": statistics.median(fastest(raw["setup_s"])),
        "wall_s": statistics.median(p["wall_s"] for p in chosen),
        "points_per_s": statistics.median(p["points_per_s"]
                                          for p in chosen),
        "point_ms_p50": quantile(point_ms, 0.5),
        "point_ms_p90": quantile(point_ms, 0.9),
        "peak_rss_mb": (raw["rss_self_kb"] + raw["rss_children_kb"]) / 1024.0,
    }


def per_layer(raw):
    out = {}
    for name, _ in PER_LAYER:
        if raw["layers"].get(name):
            out[name] = statistics.median(raw["layers"][name])
        else:
            # A count, or 0 when the workload does not reach the layer.
            out[name] = raw["counts"].get(name, 0.0)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs and one pass, for tests")
    ap.add_argument("--update-golden", action="store_true",
                    help="record this run's digests and counts as golden")
    args = ap.parse_args()

    os.chdir(ROOT)
    build()
    start = time.monotonic()

    work_dir = os.path.join(RUN_DIR, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    raw = run_driver(args, work_dir,
                     RUN_BUDGET_S - (time.monotonic() - start))

    host = raw["host"]
    log("host: nproc=%s cpu=%s compiler=%s build=%s"
        % (host["nproc"], host["cpu_model"], host["compiler"],
           host["build_type"]))
    if host["build_type"] != "Release":
        die("refusing to report numbers from a %s build"
            % host["build_type"])

    errors = list(raw["errors"])
    failed = raw["failed"]
    if args.update_golden and failed == 0:
        update_golden(raw, args)
    failed += check_golden(raw, args, errors)
    attempted = max(raw["attempted"], 1)
    for e in errors[:20]:
        log("FAIL: " + e)

    if args.trace:
        metrics = per_layer(raw)
        units = dict(PER_LAYER)
        log("per-layer self time and counts (traced run, median of %d "
            "traced passes); trace and self-time table in %s"
            % (max((len(v) for v in raw["layers"].values()), default=0),
               work_dir))
    else:
        metrics = end_to_end(raw, args.workload)
        units = dict(END_TO_END)
        log("%d set-ups, %d passes of %d points, %s; error_rate %.6g "
            "(%d failed / %d attempted)"
            % (len(raw["setup_s"]), len(raw["passes"]),
               len(raw["passes"][0]["point_ms"]) if raw["passes"] else 0,
               "medians" if args.workload in SPREAD_BY_DESIGN
               else "fastest tenth", failed / attempted, failed, attempted))
        if "sim.cycles" in raw["counts"]:
            log("sim_cycles per pass: %d" % raw["counts"]["sim.cycles"])
        if raw["layers"].get("exp.client_reconnects"):
            log("client reconnects (the plan came back from the journal): "
                "%d" % raw["layers"]["exp.client_reconnects"][0])
        if raw["layers"].get("exp.replay_points_per_s"):
            log("replay_points_per_s: %.6g" % statistics.median(
                raw["layers"]["exp.replay_points_per_s"]))
    for name, value in metrics.items():
        print("%-28s %14.6g %s" % (name, value, units[name]))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
