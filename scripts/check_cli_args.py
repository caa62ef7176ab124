#!/usr/bin/env python3
"""Check the one command-line layer (exp::Args) end to end.

pcsim, the bench/ harnesses and procoupd parse argv with one cursor
(src/procoup/exp/harness.hh). This script checks two things on real
binaries:

1. Both spellings agree. pcsim and a harness restricted to one point
   (--filter Matrix/Coupled) run once with each shared valued flag as
   `--flag X` and once as `--flag=X`; stdout and the --stats-json
   document must be identical. Flags that change the run (--faults,
   --fault-seed) must also change it, so a value that is silently
   dropped fails.
2. A malformed value ends in usage. Each bad value exits 1 with the
   usage text on pcsim, the harness and fuzz_soak (2 on procoupd)
   instead of running a different experiment.

--connect is left out: it needs a running daemon (chaos_daemon.py
covers it).

Usage: check_cli_args.py --pcsim BIN --harness BIN --procoupd BIN
                         --fuzz-soak BIN
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

FAILURES = []

# (flag, value, extra flags, whether the value changes the run)
VALUED = [
    ("--jobs", "2", [], False),
    ("--faults", "0.5", [], True),
    ("--fault-seed", "7", ["--faults=1.0"], True),
    ("--retries", "1", ["--fail-safe"], False),
    ("--worker-timeout-ms", "60000", ["--isolate-workers"], False),
    ("--journal", "{dir}/journal", [], False),
    ("--disk-cache", "{dir}/cache", [], False),
    ("--sweep-report", "{dir}/report.json", [], False),
    ("--stats-json", "{dir}/stats.json", [], False),
]

BAD_SHARED = [
    ["--faults=abc"],
    ["--jobs=3x"],
    ["--fault-seed", "abc"],
    ["--retries=-1"],
    ["--sanitize=0"],
    ["--faults=nan"],
]

BAD_PCSIM = [
    ["--cycle-cap", "50x"],
    ["--max-trace", "abc"],
    ["--mem", "bogus"],
]

BAD_FUZZ_SOAK = [
    ["--programs", "abc"],
    ["--programs", "2x"],
    ["--first-seed", "-1"],
]

BAD_PROCOUPD = [
    ["--jobs=abc"],
    ["--retries=-1"],
    ["--lease-ms=0"],
    ["--heartbeat-ms=250"],  # gone: the cadence is a quarter lease
]


def fail(what):
    FAILURES.append(what)


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def outputs(base, flag_args, work):
    """stdout and --stats-json text of one run in a fresh directory."""
    os.makedirs(work)
    args = [a.replace("{dir}", work) for a in flag_args]
    stats = os.path.join(work, "stats.json")
    if not any(a.startswith("--stats-json") for a in args):
        args += ["--stats-json", stats]
    proc = run(base + args, work)
    if proc.returncode != 0:
        fail(f"{' '.join(base + args)}: exit {proc.returncode}: "
             f"{proc.stderr.strip()}")
        return None
    with open(stats) as f:
        return proc.stdout, f.read()


def check_spellings(name, base, work):
    for k, (flag, value, extra, changes) in enumerate(VALUED):
        space = outputs(base, extra + [flag, value],
                        os.path.join(work, f"{k}-space"))
        joined = outputs(base, extra + [f"{flag}={value}"],
                         os.path.join(work, f"{k}-joined"))
        if space is None or joined is None:
            continue
        if space != joined:
            fail(f"{name}: '{flag} {value}' and '{flag}={value}' differ")
        if changes and space == outputs(base, extra,
                                        os.path.join(work, f"{k}-without")):
            fail(f"{name}: {flag} {value} did not change the run")
        if flag == "--sweep-report":
            for d in (f"{k}-space", f"{k}-joined"):
                path = os.path.join(work, d, "report.json")
                try:
                    with open(path) as f:
                        json.load(f)
                except (OSError, json.JSONDecodeError) as e:
                    fail(f"{name}: {flag} wrote no report: {e}")


def check_rejected(name, cmd, want_rc, work):
    proc = run(cmd, work)
    if proc.returncode != want_rc or "usage:" not in proc.stderr:
        fail(f"{name}: {' '.join(cmd[1:])} exited {proc.returncode} "
             f"(want {want_rc} with usage), stderr: "
             f"{proc.stderr.strip()[:200]}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pcsim", required=True)
    ap.add_argument("--harness", required=True,
                    help="table2_baseline (or any harness with a "
                         "Matrix/Coupled point)")
    ap.add_argument("--procoupd", required=True)
    ap.add_argument("--fuzz-soak", required=True)
    args = ap.parse_args()

    pcsim = [os.path.abspath(args.pcsim), "--benchmark", "Matrix",
             "--mode", "coupled", "--verify"]
    harness = [os.path.abspath(args.harness), "--filter",
               "Matrix/Coupled"]
    with tempfile.TemporaryDirectory() as work:
        check_spellings("pcsim", pcsim, os.path.join(work, "pcsim"))
        check_spellings("harness", harness, os.path.join(work, "harness"))
        # --filter itself, on the harness.
        f_space = run([harness[0], "--filter", "Matrix/Coupled"], work)
        f_joined = run([harness[0], "--filter=Matrix/Coupled"], work)
        if f_space.stdout != f_joined.stdout or f_space.returncode:
            fail("harness: '--filter X' and '--filter=X' differ")

        for bad in BAD_SHARED:
            check_rejected("pcsim", pcsim + bad, 1, work)
            check_rejected("harness", harness + bad, 1, work)
        for bad in BAD_PCSIM:
            check_rejected("pcsim", pcsim + bad, 1, work)
        for bad in BAD_FUZZ_SOAK:
            check_rejected("fuzz_soak",
                           [os.path.abspath(args.fuzz_soak)] + bad, 1, work)
        for bad in BAD_PROCOUPD:
            check_rejected("procoupd",
                           [os.path.abspath(args.procoupd), "--socket",
                            os.path.join(work, "d.sock")] + bad,
                           2, work)

    if FAILURES:
        for f in FAILURES:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    bad = (2 * len(BAD_SHARED) + len(BAD_PCSIM) + len(BAD_FUZZ_SOAK) +
           len(BAD_PROCOUPD))
    print(f"ok: {len(VALUED)} valued flags agree in both spellings on "
          f"pcsim and the harness; {bad} malformed values end in usage")
    return 0


if __name__ == "__main__":
    sys.exit(main())
