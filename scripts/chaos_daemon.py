#!/usr/bin/env python3
"""Chaos test for supervised execution: procoupd and --isolate-workers.

Runs the same fuzz_soak sweep through every failure mode of the worker
supervisor (exp/worker.hh), which the procoupd daemon and a harness's
--isolate-workers share, and asserts the convergence contract:
whatever dies — worker, daemon, or client — a client that (re)submits
the plan ends up with a stats bundle byte-identical to a plain local
run, and journaled points are never recompiled or re-executed.

Scenarios (--scenarios picks a comma-separated subset; default all):

  clean       daemon run vs local run: byte-identical bundle, report
              identical after dropping timing/daemon keys, leases
              issued for every point;
  no-workers  in-process degradation (--no-workers): identical bundle;
  kill-worker SIGKILL a worker child mid-sweep: the broken lease is
              reassigned and the bundle still converges;
  kill-daemon SIGKILL the daemon mid-sweep, restart it on the same
              state dir: the client reconnects, journaled points
              replay, and the bundle still converges;
  kill-client SIGKILL the client mid-sweep: the daemon finishes and
              finalizes its journal anyway; a second client replays
              the whole plan with ZERO recompiles and an identical
              bundle;
  isolate-journal  --isolate-workers --journal: bundle and stdout
              (minus timing lines) identical to the local run, and a
              rerun over the finalized journal spawns ZERO workers,
              replays every point, executes and compiles nothing;
  poisoned    a worker hook crashes (PROCOUP_TEST_WORKER_CRASH_LABEL)
              or hangs (PROCOUP_TEST_WORKER_HANG_LABEL) on one point:
              under --isolate-workers it becomes a worker-crash or
              worker-timeout record, under the daemon worker-lost,
              each with its attempt count, while every other point
              stays identical to the local run.

Exit status 0 on success; 1 with a FAIL line per violation.
"""

import argparse
import glob
import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
import time

FRAME_MAGIC = 0x52464350  # "PCFR"
FORMAT_VERSION = 1
FRAME_HEADER = 4 + 4 + 8 + 8

FIRST_SEED = 7000

FAILURES = []


def check(cond, message):
    if not cond:
        FAILURES.append(message)
    return cond


def count_frames(path):
    """Lower bound on committed records (stop at any damage)."""
    try:
        blob = open(path, "rb").read()
    except OSError:
        return 0
    n, off = 0, 0
    while off + FRAME_HEADER <= len(blob):
        magic, version, length = struct.unpack_from("<IIQ", blob, off)
        if magic != FRAME_MAGIC or version != FORMAT_VERSION:
            break
        if off + FRAME_HEADER + length > len(blob):
            break
        n += 1
        off += FRAME_HEADER + length
    return n


def wal_records(state):
    return sum(count_frames(p)
               for p in glob.glob(os.path.join(state, "*.wal")) +
               glob.glob(os.path.join(state, "*.journal")))


def child_pids(pid):
    pids = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            pids += [int(c) for c in open(path).read().split()]
        except (OSError, ValueError):
            pass
    return pids


def spawn_count(path):
    try:
        return sum(1 for line in open(path) if line.strip())
    except OSError:
        return 0


def by_label(bundle_path):
    doc = json.load(open(bundle_path))
    return {run["label"]: run for run in doc.get("runs", [])}


def check_poisoned(name, bundle_path, ref_runs, bad_label, kind,
                   attempts):
    """The bad point is a structured record; the rest are bit-identical
    to the local reference."""
    runs = by_label(bundle_path)
    check(runs.keys() == ref_runs.keys(),
          f"{name}: bundle lost or invented points")
    err = runs.get(bad_label, {}).get("error")
    if check(err is not None,
             f"{name}: '{bad_label}' has no error record"):
        check(err.get("kind") == kind,
              f"{name}: kind '{err.get('kind')}', expected '{kind}'")
        check(err.get("retries") == attempts - 1,
              f"{name}: retries {err.get('retries')}, expected "
              f"{attempts - 1}")
        check(f"({attempts} attempts)" in err.get("message", ""),
              f"{name}: message lacks the attempt count: "
              f"{err.get('message')!r}")
    for label, ref in ref_runs.items():
        if label != bad_label:
            check(runs.get(label) == ref,
                  f"{name}: healthy point '{label}' diverged from the "
                  "local run")


def normalized_report(path):
    """A sweep report minus everything legitimately run-dependent."""
    doc = json.load(open(path))
    for key in ("wall_ms", "point_wall_ms_total", "jobs",
                "compile_cache", "daemon"):
        doc.pop(key, None)
    return doc


class Daemon:
    def __init__(self, procoupd, sock, state, extra=(), env=None):
        self.procoupd = procoupd
        self.sock = sock
        self.state = state
        self.extra = list(extra)
        self.env = env
        self.proc = None

    def start(self):
        self.proc = subprocess.Popen(
            [self.procoupd, "--socket", self.sock, "--state",
             self.state, "--jobs", "2"] + self.extra,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=self.env)
        deadline = time.monotonic() + 10.0
        while not os.path.exists(self.sock):
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never bound its socket")
            time.sleep(0.01)
        return self

    def kill(self):
        if self.proc and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()

    def stop(self):
        if self.proc and self.proc.poll() is None:
            subprocess.run([self.procoupd, "--socket", self.sock,
                            "--stop"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=30)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.kill()


def run_harness(harness, flags, env, stdout=subprocess.DEVNULL):
    """Exit status of one --jobs 2 harness run."""
    return subprocess.run([harness, "--jobs", "2"] + flags,
                          stdout=stdout, stderr=subprocess.DEVNULL,
                          env=env, timeout=300).returncode


def untimed_stdout(path):
    """fuzz_soak stdout minus its wall-clock lines."""
    return [line for line in open(path)
            if not line.startswith(("wall_ms:", "programs_per_sec:"))]


def run_client(harness, sock, env, bundle, report):
    return run_harness(harness, ["--connect", sock, "--stats-json",
                                 bundle, "--sweep-report", report], env)


class Chaos:
    """What the scenarios share: binaries, a scratch directory, the
    two sweep sizes, and the local reference runs every scenario must
    converge to."""

    def __init__(self, args):
        self.harness = args.harness
        self.procoupd = args.procoupd
        self.max_tries = args.max_tries
        self.work = tempfile.mkdtemp(prefix="procoup_chaosd_")
        self.env = dict(os.environ,
                        PROCOUP_FUZZ_PROGRAMS=str(args.programs),
                        PROCOUP_FUZZ_FIRST_SEED=str(FIRST_SEED))
        for hook in ("PROCOUP_SOAK_JOURNAL",
                     "PROCOUP_TEST_WORKER_CRASH_LABEL",
                     "PROCOUP_TEST_WORKER_HANG_LABEL"):
            self.env.pop(hook, None)
        self.chaos_env = dict(
            self.env, PROCOUP_FUZZ_PROGRAMS=str(args.chaos_programs))
        self.refs = {}
        self.kc_state = None

    def path(self, name):
        return os.path.join(self.work, name)

    def ref(self, tag):
        """(bundle bytes, normalized report) of the local run at sweep
        size 'small' or 'big' (the kill scenarios' size); None if the
        local run failed."""
        if tag not in self.refs:
            e = self.env if tag == "small" else self.chaos_env
            bundle = self.path(f"ref_{tag}.json")
            report = self.path(f"refrep_{tag}.json")
            with open(self.path(f"ref_{tag}.out"), "w") as out:
                rc = run_harness(self.harness,
                                 ["--stats-json", bundle,
                                  "--sweep-report", report], e, out)
            self.refs[tag] = None
            if check(rc == 0, f"local reference ({tag}) failed rc={rc}"):
                self.refs[tag] = (open(bundle, "rb").read(),
                                  normalized_report(report))
        return self.refs[tag]


def clean(c):
    """Daemon run == local run."""
    ref = c.ref("small")
    if ref is None:
        return
    d = Daemon(c.procoupd, c.path("clean.sock"), c.path("clean.state"))
    d.start()
    bundle, report = c.path("clean_bundle.json"), c.path("clean_rep.json")
    rc = run_client(c.harness, d.sock, c.env, bundle, report)
    d.stop()
    if check(rc == 0, f"clean daemon client failed rc={rc}"):
        check(open(bundle, "rb").read() == ref[0],
              "clean: daemon bundle differs from local bundle")
        check(normalized_report(report) == ref[1],
              "clean: daemon report differs beyond timing/daemon keys")
        daemon_block = json.load(open(report)).get("daemon", {})
        check(daemon_block.get("leases_issued", 0) > 0,
              "clean: daemon report shows no leases issued")
        check(daemon_block.get("worker_lost", 0) == 0,
              "clean: daemon lost workers on an undisturbed run")


def no_workers(c):
    """In-process degradation."""
    ref = c.ref("small")
    if ref is None:
        return
    d = Daemon(c.procoupd, c.path("noworkers.sock"),
               c.path("noworkers.state"), extra=["--no-workers"])
    d.start()
    bundle, report = c.path("nw_bundle.json"), c.path("nw_rep.json")
    rc = run_client(c.harness, d.sock, c.env, bundle, report)
    d.stop()
    if check(rc == 0, f"no-workers client failed rc={rc}"):
        check(open(bundle, "rb").read() == ref[0],
              "no-workers: bundle differs from local bundle")


def kill_worker(c):
    """A broken lease is reassigned."""
    ref = c.ref("big")
    if ref is None:
        return
    landed = False
    for attempt in range(c.max_tries):
        state = c.path(f"kw{attempt}.state")
        d = Daemon(c.procoupd, c.path(f"kw{attempt}.sock"), state)
        d.start()
        bundle, report = c.path("kw_bundle.json"), c.path("kw_rep.json")
        client = subprocess.Popen(
            [c.harness, "--jobs", "2", "--connect", d.sock,
             "--stats-json", bundle, "--sweep-report", report],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=c.chaos_env)
        deadline = time.monotonic() + 300.0
        while (wal_records(state) < 1 and client.poll() is None and
               time.monotonic() < deadline):
            time.sleep(0.005)
        workers = child_pids(d.proc.pid) if client.poll() is None else []
        for pid in workers[:1]:
            try:
                os.kill(pid, signal.SIGKILL)
                landed = True
            except OSError:
                pass
        rc = client.wait(timeout=300)
        d.stop()
        if not check(rc == 0, f"kill-worker client failed rc={rc}"):
            return
        check(open(bundle, "rb").read() == ref[0],
              "kill-worker: bundle differs after a worker SIGKILL")
        if landed:
            break
    check(landed, "kill-worker: no kill ever landed mid-sweep; "
                  "raise --chaos-programs")


def kill_daemon(c):
    """The client survives a daemon SIGKILL + restart."""
    ref = c.ref("big")
    if ref is None:
        return
    landed = False
    for attempt in range(c.max_tries):
        state = c.path(f"kd{attempt}.state")
        sock = c.path(f"kd{attempt}.sock")
        d = Daemon(c.procoupd, sock, state)
        d.start()
        bundle, report = c.path("kd_bundle.json"), c.path("kd_rep.json")
        client = subprocess.Popen(
            [c.harness, "--jobs", "2", "--connect", sock,
             "--stats-json", bundle, "--sweep-report", report],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=c.chaos_env)
        deadline = time.monotonic() + 300.0
        while (wal_records(state) < 1 and client.poll() is None and
               time.monotonic() < deadline):
            time.sleep(0.005)
        if client.poll() is None:
            d.kill()
            landed = True
            d = Daemon(c.procoupd, sock, state).start()
        rc = client.wait(timeout=300)
        d.stop()
        if not check(rc == 0, f"kill-daemon client failed rc={rc}"):
            return
        check(open(bundle, "rb").read() == ref[0],
              "kill-daemon: bundle differs after daemon SIGKILL+restart")
        if landed:
            daemon_block = json.load(open(report)).get("daemon", {})
            check(daemon_block.get("replayed", 0) >= 1,
                  "kill-daemon: restarted daemon replayed nothing "
                  "from its journal")
            break
    check(landed, "kill-daemon: no kill ever landed mid-sweep; "
                  "raise --chaos-programs")


def kill_client(c):
    """The daemon finishes alone; a second client replays."""
    ref = c.ref("big")
    if ref is None:
        return
    landed = False
    for attempt in range(c.max_tries):
        state = c.path(f"kc{attempt}.state")
        d = Daemon(c.procoupd, c.path(f"kc{attempt}.sock"), state)
        d.start()
        client = subprocess.Popen(
            [c.harness, "--jobs", "2", "--connect", d.sock,
             "--stats-json", c.path("kc_dead.json")],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=c.chaos_env)
        deadline = time.monotonic() + 300.0
        while (wal_records(state) < 1 and client.poll() is None and
               time.monotonic() < deadline):
            time.sleep(0.005)
        if client.poll() is None:
            client.send_signal(signal.SIGKILL)
            client.wait()
            landed = True
        else:
            d.stop()
            continue
        # The plan must run to completion and finalize daemon-side
        # even with no client attached.
        deadline = time.monotonic() + 300.0
        while (not glob.glob(os.path.join(state, "*.journal")) and
               time.monotonic() < deadline):
            time.sleep(0.01)
        if not check(glob.glob(os.path.join(state, "*.journal")),
                     "kill-client: daemon never finalized its journal "
                     "after the client died"):
            d.stop()
            return
        bundle, report = c.path("kc_bundle.json"), c.path("kc_rep.json")
        rc = run_client(c.harness, d.sock, c.chaos_env, bundle, report)
        d.stop()
        if not check(rc == 0, f"kill-client second client failed rc={rc}"):
            return
        check(open(bundle, "rb").read() == ref[0],
              "kill-client: replayed bundle differs from local bundle")
        daemon_block = json.load(open(report)).get("daemon", {})
        check(daemon_block.get("compiles", -1) == 0,
              f"kill-client: replay recompiled "
              f"{daemon_block.get('compiles')} points (want 0)")
        check(daemon_block.get("executed", -1) == 0,
              f"kill-client: replay re-executed "
              f"{daemon_block.get('executed')} points (want 0)")
        c.kc_state = state
        break
    check(landed, "kill-client: no kill ever landed mid-sweep; "
                  "raise --chaos-programs")


def isolate_journal(c):
    """--isolate-workers over a journal; the rerun forks nothing."""
    ref = c.ref("small")
    if ref is None:
        return
    jdir = c.path("iso.journal")
    for tag in ("first", "resume"):
        bundle = c.path(f"iso_{tag}.json")
        report = c.path(f"iso_{tag}_rep.json")
        with open(c.path(f"iso_{tag}.out"), "w") as out:
            rc = run_harness(
                c.harness,
                ["--isolate-workers", "--journal", jdir, "--stats-json",
                 bundle, "--sweep-report", report],
                dict(c.env,
                     PROCOUP_TEST_WORKER_SPAWN_LOG=c.path(f"{tag}.spawns")),
                out)
        if not check(rc == 0, f"isolate-journal ({tag}) failed rc={rc}"):
            return
        check(open(bundle, "rb").read() == ref[0],
              f"isolate-journal ({tag}): bundle differs from local bundle")
        check(untimed_stdout(c.path(f"iso_{tag}.out")) ==
              untimed_stdout(c.path("ref_small.out")),
              f"isolate-journal ({tag}): stdout differs from local stdout")
    check(spawn_count(c.path("first.spawns")) > 0,
          "isolate-journal: the isolated sweep spawned no workers")
    check(spawn_count(c.path("resume.spawns")) == 0,
          "isolate-journal: the rerun over a finalized journal spawned "
          "workers (want 0)")
    doc = json.load(open(c.path("iso_resume_rep.json")))
    jb = doc.get("journal", {})
    check(jb.get("replayed") == doc.get("points"),
          f"isolate-journal: the rerun replayed {jb.get('replayed')} "
          f"of {doc.get('points')} points")
    check(jb.get("executed") == 0 and jb.get("compiles") == 0,
          f"isolate-journal: the rerun executed {jb.get('executed')} "
          f"points and compiled {jb.get('compiles')} (want 0 and 0)")


def poisoned(c):
    """One lease path, three record kinds."""
    prefix = f"s{FIRST_SEED}/"
    only = ["--filter", prefix]
    ref = c.path("ref_filtered.json")
    rc = run_harness(c.harness, only + ["--stats-json", ref], c.env)
    victims = [l for l in subprocess.run(
                   [c.harness, "--list"], env=c.env, capture_output=True,
                   text=True, timeout=60).stdout.split()
               if l.startswith(prefix)]
    if not check(rc == 0 and len(victims) >= 2,
                 f"filtered local reference failed rc={rc}"):
        return
    ref_runs = by_label(ref)
    crash = dict(c.env, PROCOUP_TEST_WORKER_CRASH_LABEL=victims[0])
    hang = dict(c.env, PROCOUP_TEST_WORKER_HANG_LABEL=victims[1])
    # The hang budget converts the hang whatever its size, so it is
    # sized for the healthy points: on an oversubscribed host a 1 s
    # budget can kill a legitimate worker.
    for name, flags, e, victim, kind, attempts in (
            ("isolate-crash", ["--retries=1"], crash, victims[0],
             "worker-crash", 2),
            ("isolate-hang", ["--retries=0", "--worker-timeout-ms=10000"],
             hang, victims[1], "worker-timeout", 1)):
        bundle = c.path(f"{name}.json")
        rc = run_harness(c.harness, only + ["--isolate-workers"] +
                         flags + ["--stats-json", bundle], e)
        if check(rc == 0, f"{name}: harness failed rc={rc}"):
            check_poisoned(name, bundle, ref_runs, victim, kind, attempts)
    d = Daemon(c.procoupd, c.path("lost.sock"), c.path("lost.state"),
               extra=["--retries", "1"], env=crash).start()
    bundle = c.path("daemon-crash.json")
    rc = run_harness(c.harness, only + ["--connect", d.sock,
                                        "--stats-json", bundle], c.env)
    d.stop()
    if check(rc == 0, f"daemon-crash: client failed rc={rc}"):
        check_poisoned("daemon-crash", bundle, ref_runs, victims[0],
                       "worker-lost", 2)


def check_schema(c):
    """The daemon-mode sweep reports — and the survived state dir —
    must satisfy the schema contract."""
    checker = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_stats_schema.py")
    cmd = [sys.executable, checker]
    for rep in ("clean_rep.json", "kd_rep.json", "kc_rep.json"):
        if os.path.exists(c.path(rep)):
            cmd += ["--sweep-report", c.path(rep)]
    if c.kc_state is not None:
        cmd += ["--journal-dir", c.kc_state]
    if len(cmd) > 2:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        check(proc.returncode == 0,
              f"schema validation failed: "
              f"{proc.stderr.decode(errors='replace').strip()}")


SCENARIOS = {
    "clean": clean,
    "no-workers": no_workers,
    "kill-worker": kill_worker,
    "kill-daemon": kill_daemon,
    "kill-client": kill_client,
    "isolate-journal": isolate_journal,
    "poisoned": poisoned,
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--harness", required=True,
                    help="path to the fuzz_soak binary")
    ap.add_argument("--procoupd", required=True,
                    help="path to the procoupd binary")
    ap.add_argument("--scenarios", default=",".join(SCENARIOS),
                    help="comma-separated subset of: " +
                         ", ".join(SCENARIOS))
    ap.add_argument("--programs", type=int, default=4)
    ap.add_argument("--chaos-programs", type=int, default=20,
                    help="sweep size for the kill scenarios (bigger "
                         "= more runway for a mid-sweep kill)")
    ap.add_argument("--max-tries", type=int, default=8)
    args = ap.parse_args()
    selected = args.scenarios.split(",")
    unknown = [s for s in selected if s not in SCENARIOS]
    if unknown:
        ap.error(f"unknown scenario(s): {', '.join(unknown)}")

    c = Chaos(args)
    for name, scenario in SCENARIOS.items():
        if name in selected:
            scenario(c)
    check_schema(c)
    return finish(selected)


def finish(selected):
    if FAILURES:
        for f in FAILURES:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print(f"chaos_daemon: {', '.join(selected)} converged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
