#!/usr/bin/env python3
"""Kill/resume chaos test for the write-ahead results journal.

Runs a journaled fuzz_soak sweep (--journal DIR), kills the
process after a seeded-random number of points has been committed to
the write-ahead file (observed by counting its framed records), then
resumes — repeatedly, until a run survives to completion — and
asserts the crash-safety contract. With --signal kill (the default)
the process dies by SIGKILL, exercising torn-tail recovery; with
--signal term it dies by SIGTERM, exercising the graceful drain that
finishes in-flight points, flushes the WAL, and exits 143. The SIGTERM
is sent while the process is stopped (SIGSTOP) with a point still
uncommitted, so it always lands while the drain handler is armed:

  * the final --stats-json bundle is byte-identical to the bundle of
    an uninterrupted, never-journaled run of the same sweep;
  * stdout matches the uninterrupted run after dropping the journal
    summary and wall-clock timing lines;
  * at least one resume actually replayed journaled work
    (points_replayed > 0 on the surviving run);
  * a final rerun over the finalized journal replays *every* point
    and compiles nothing ("compiles": 0 in the --sweep-report journal
    block);
  * the journal directory passes scripts/check_stats_schema.py
    --journal-dir validation.

A passing run removes its scratch directory; a failing one keeps it
and prints its path.

Exit status 0 on success; 1 with a FAIL line per violation otherwise.
"""

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from check_stats_schema import journal_records

FAILURES = []


def check(cond, message):
    if not cond:
        FAILURES.append(message)
    return cond


def stopped_mid_sweep(child, jdir, points):
    """SIGSTOP the child and wait until it has stopped. True if it
    stopped with fewer than all of the plan's points committed: inside
    the sweep's point loop, where its drain handler is armed. False if
    it committed them all first, or exited (then it is reaped here)."""
    child.send_signal(signal.SIGSTOP)
    _, status = os.waitpid(child.pid, os.WUNTRACED)
    if not os.WIFSTOPPED(status):
        child.returncode = os.waitstatus_to_exitcode(status)
        return False
    return journal_records(jdir) < points


def run_soak(soak, jobs, extra, out_path):
    cmd = soak + ["--jobs", str(jobs)] + extra
    with open(out_path, "w") as out:
        return subprocess.run(cmd, stdout=out,
                              stderr=subprocess.DEVNULL)


def filtered_stdout(path, drop_prefixes):
    lines = []
    for line in open(path):
        if any(line.startswith(p) for p in drop_prefixes):
            continue
        lines.append(line)
    return "".join(lines)


TIMING_PREFIXES = ("wall_ms:", "programs_per_sec:")
JOURNAL_PREFIXES = ("points_replayed:", "points_executed:")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--harness", required=True,
                    help="path to the fuzz_soak binary")
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--programs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=20260808,
                    help="seed for the kill schedule")
    ap.add_argument("--max-kills", type=int, default=8)
    ap.add_argument("--signal", choices=["kill", "term"],
                    default="kill",
                    help="'kill' tests torn-tail recovery after "
                         "SIGKILL; 'term' tests the graceful "
                         "flush-and-exit drain (expects rc 143)")
    args = ap.parse_args()
    chaos_signal = (signal.SIGKILL if args.signal == "kill"
                    else signal.SIGTERM)

    work = tempfile.mkdtemp(prefix="procoup_chaos_")
    rc = 1
    try:
        rc = chaos(args, chaos_signal, work)
    finally:
        if rc == 0:
            shutil.rmtree(work, ignore_errors=True)
        else:
            print(f"chaos_kill_resume: scratch kept in {work}",
                  file=sys.stderr)
    return rc


def chaos(args, chaos_signal, work):
    rng = random.Random(args.seed)
    jdir = os.path.join(work, "journal")
    soak = [args.harness, "--programs", str(args.programs),
            "--first-seed", "7000"]

    # Uninterrupted, never-journaled reference sweep.
    ref_bundle = os.path.join(work, "ref_bundle.json")
    ref_out = os.path.join(work, "ref.out")
    proc = run_soak(soak, args.jobs, ["--stats-json", ref_bundle],
                    ref_out)
    if not check(proc.returncode == 0,
                 f"reference soak failed rc={proc.returncode}"):
        return finish()

    # Chaos loop: journaled runs, signaled after a random number of
    # newly committed points, until one survives to the finish line.
    points = next(int(line.split(":")[1]) for line in open(ref_out)
                  if line.startswith("points:"))
    journaled = soak + ["--journal", jdir]
    got_bundle = os.path.join(work, "got_bundle.json")
    got_out = os.path.join(work, "got.out")
    kills = 0
    signals_sent = 0
    drains = 0
    survived = False
    while kills < args.max_kills:
        start = journal_records(jdir)
        threshold = start + rng.randint(1, 10)
        with open(got_out, "w") as out:
            child = subprocess.Popen(
                journaled + ["--jobs", str(args.jobs),
                             "--stats-json", got_bundle],
                stdout=out, stderr=subprocess.DEVNULL)
            deadline = time.monotonic() + 300.0
            while child.poll() is None:
                if journal_records(jdir) >= threshold:
                    if args.signal == "kill":
                        child.send_signal(chaos_signal)
                        signals_sent += 1
                    elif stopped_mid_sweep(child, jdir, points):
                        # Stopped inside the point loop: the SIGTERM
                        # is handled on resume, before the sweep can
                        # leave the loop and disarm its drain.
                        child.send_signal(chaos_signal)
                        signals_sent += 1
                        child.send_signal(signal.SIGCONT)
                    else:
                        # Every point was committed before it
                        # stopped: past the drain window. Let it run
                        # to the finish line unsignaled.
                        child.send_signal(signal.SIGCONT)
                    child.wait()
                    if (args.signal == "term" and
                            child.returncode == 0):
                        # The sweep crossed the finish line first.
                        # A completed run, not a kill.
                        survived = True
                    else:
                        if args.signal == "term":
                            # The drain finished in-flight points,
                            # flushed the WAL, and exited 143.
                            check(child.returncode ==
                                  128 + signal.SIGTERM,
                                  f"SIGTERM mid-sweep exited "
                                  f"rc={child.returncode}, want 143")
                            if (child.returncode
                                    == 128 + signal.SIGTERM):
                                drains += 1
                        kills += 1
                    break
                if time.monotonic() > deadline:
                    child.kill()
                    child.wait()
                    check(False, "soak run hung past its deadline")
                    return finish()
                time.sleep(0.001)
            else:
                survived = child.returncode == 0
                check(survived,
                      f"resumed soak failed rc={child.returncode}")
            if survived:
                break
    if not survived:
        # Kill budget exhausted: one clean run to the finish line.
        proc = run_soak(journaled, args.jobs,
                        ["--stats-json", got_bundle], got_out)
        if not check(proc.returncode == 0,
                     f"final resume failed rc={proc.returncode}"):
            return finish()

    check(signals_sent > 0,
          "kill schedule never fired: sweep too fast or thresholds "
          "too deep; shrink --programs")
    if args.signal == "term" and kills > 0:
        check(drains > 0,
              "every SIGTERM raced past the drain window; the "
              "graceful-exit path was never exercised")

    # The surviving run replayed the murdered runs' committed work.
    replayed = None
    for line in open(got_out):
        if line.startswith("points_replayed:"):
            replayed = int(line.split(":")[1])
    check(replayed is not None,
          "journaled soak printed no points_replayed line")
    if replayed is not None and kills > 0:
        check(replayed > 0, "resume replayed nothing despite kills")

    # Byte-identical bundle, journal-agnostic stdout.
    ref_bytes = open(ref_bundle, "rb").read()
    got_bytes = open(got_bundle, "rb").read()
    check(ref_bytes == got_bytes,
          "resumed bundle differs from the uninterrupted bundle")
    check(filtered_stdout(ref_out, TIMING_PREFIXES) ==
          filtered_stdout(got_out,
                          TIMING_PREFIXES + JOURNAL_PREFIXES),
          "resumed stdout differs beyond timing/journal lines")

    # Full replay over the finalized journal: everything restored,
    # nothing recompiled.
    rep = os.path.join(work, "replay_report.json")
    proc = run_soak(journaled, args.jobs, ["--sweep-report", rep],
                    os.path.join(work, "replay.out"))
    check(proc.returncode == 0,
          f"full-replay soak failed rc={proc.returncode}")
    if proc.returncode == 0:
        doc = json.load(open(rep))
        jb = doc.get("journal", {})
        check(jb.get("executed") == 0,
              f"full replay still executed {jb.get('executed')} points")
        check(jb.get("replayed") == doc.get("points"),
              f"replayed {jb.get('replayed')} of {doc.get('points')}")
        check(jb.get("compiles") == 0,
              f"full replay recompiled {jb.get('compiles')} points")

    # The journal directory itself must pass schema validation.
    schema = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "check_stats_schema.py")
    proc = subprocess.run([sys.executable, schema,
                           "--journal-dir", jdir],
                          capture_output=True, text=True)
    check(proc.returncode == 0,
          f"journal schema validation failed:\n{proc.stderr.strip()}")

    return finish(kills=kills, replayed=replayed)


def finish(kills=0, replayed=None):
    if FAILURES:
        for f in FAILURES:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print(f"ok: survived {kills} kill(s), replayed "
          f"{replayed} point(s), bundle byte-identical, "
          "zero recompiles on full replay")
    return 0


if __name__ == "__main__":
    sys.exit(main())
