#!/usr/bin/env python3
"""Validate pcsim --stats-json output against the documented schema.

Runs the Table 2 baseline workloads (all four paper benchmarks) on the
four paper machine configurations (baseline memory, min, Mem1, Mem2),
asks pcsim for --stats-json, and checks:

  * the output is valid JSON with schema "procoup-stats/1" (or "/2"
    when fault injection was on — then, and only then, a "faults"
    block with every perturbation counter must be present and its
    totalEvents must equal the sum of the event counters);
  * every required key is present with the right type/shape;
  * the stall-cause taxonomy matches the canonical seven causes;
  * the conservation invariant holds at every level:
        cycles * numFus == issued + sum(stalls)
    per FU, per cluster, and machine-wide;
  * per-thread opsIssued sums to the global operation count.

Two additional runs exercise the robustness surface: a faulted run
(--faults) must produce a consistent procoup-stats/2 document, and a
budget-capped fail-safe run (--cycle-cap --fail-safe) must produce a
structured error document with a valid kind/cycle/message record.
With --bundle FILE, also validates a harness --stats-json bundle
("procoup-stats-bundle/1" or "/2"): per-point stats entries get the
full document check, error records the error-record check.

With --journal-dir DIR, validates a results-journal directory written
by a --journal sweep (exp/journal.hh): the procoup-journal/1 meta
sidecar, and every framed record in the .journal/.wal files — frame
magic, format version, FNV-1a payload checksum, and the JSON
meta-header (label, fingerprint, threw class, error kind, retries) at
the head of each record. A procoupd state directory is a journal
directory.

With --sweep-report FILE, validates a harness --sweep-report document
("procoup-sweep/1" or "/2"): required keys, jobs >= 1, a hit_rate
that agrees with hits and misses, the optional journal/disk_cache
blocks, the failures array (whose kinds must come from the error-kind
taxonomy, including the daemon's "worker-lost"), and — for
daemon-mode runs — the "daemon" block: all eleven counters present,
non-negative, with replayed + executed equal to the point count.
With --fuzz FILE, validates a collect_fuzz.py document.

This module is also the one reader of these formats for the other
scripts: collect_sweep.py and collect_fuzz.py validate through
validate_sweep_report and validate_fuzz (via require), and the chaos
scripts poll journals through frames and journal_records.

Registered as a ctest (stats_schema_check) so `ctest -j` covers it.
Documented in docs/INTERNALS.md ("Observability").
"""

import argparse
import glob
import json
import os
import struct
import subprocess
import sys
import tempfile

CAUSES = [
    "issued",
    "no-ready-op",
    "operand-not-ready",
    "writeback-port-conflict",
    "memory-bank-busy",
    "opcache-miss",
    "idle-no-thread",
]

FAULT_EVENT_KEYS = [
    "memJitterEvents",
    "memBurstEvents",
    "bankStormEvents",
    "fuBubbleEvents",
    "opcacheFlushes",
    "spawnDelayEvents",
]
FAULT_KEYS = FAULT_EVENT_KEYS + [
    "memJitterCycles",
    "memBurstAccesses",
    "memBurstCycles",
    "bankStormDelayCycles",
    "fuBubbleCycles",
    "spawnDelayCycles",
    "totalEvents",
]

ERROR_KINDS = [
    "runtime",
    "deadlock",
    "cycle-limit",
    "wall-clock-deadline",
    "invariant-violation",
    "worker-crash",
    "worker-timeout",
    "worker-lost",
]

# Results-journal frame constants (src/procoup/exp/serialize.hh).
FRAME_MAGIC = 0x52464350  # "PCFR"
FORMAT_VERSION = 1
FRAME_HEADER = 4 + 4 + 8 + 8

BENCHMARKS = ["Matrix", "FFT", "LUD", "Model"]
MACHINES = {
    "baseline": [],
    "mem-min": ["--mem", "min"],
    "mem1": ["--mem", "mem1"],
    "mem2": ["--mem", "mem2"],
}

FAILURES = []


def check(cond, label, message):
    if not cond:
        FAILURES.append(f"{label}: {message}")


def expect_keys(label, obj, keys):
    for key, typ in keys.items():
        check(key in obj, label, f"missing key '{key}'")
        if key in obj:
            check(
                isinstance(obj[key], typ),
                label,
                f"'{key}' has type {type(obj[key]).__name__}, "
                f"expected {typ}",
            )


def validate_error_record(label, err):
    """An "error" object: a fail-safe-captured simulation failure."""
    expect_keys(label + ".error", err,
                {"kind": str, "cycle": int, "message": str})
    if "kind" in err:
        check(err["kind"] in ERROR_KINDS, label,
              f"unknown error kind '{err.get('kind')}'")
    if "message" in err:
        check(len(err["message"]) > 0, label, "empty error message")


def validate_faults(label, doc):
    """The "faults" block required by (and exclusive to) schema /2."""
    faults = doc["faults"]
    expect_keys(label + ".faults", faults,
                {k: int for k in FAULT_KEYS})
    if FAILURES:
        return
    total = sum(faults[k] for k in FAULT_EVENT_KEYS)
    check(faults["totalEvents"] == total, label,
          f"totalEvents {faults['totalEvents']} != event sum {total}")
    check(faults["memJitterCycles"] >= faults["memJitterEvents"],
          label, "jitter cycles < jitter events")
    check(faults["fuBubbleCycles"] >= faults["fuBubbleEvents"],
          label, "bubble cycles < bubble events")


def validate(label, doc):
    if "error" in doc:
        # pcsim --fail-safe writes an error document, not run stats.
        check(doc.get("schema") == "procoup-stats/2", label,
              "error documents must be procoup-stats/2")
        validate_error_record(label, doc["error"])
        return

    expect_keys(
        label,
        doc,
        {
            "schema": str,
            "machine": dict,
            "cycles": int,
            "totalOps": int,
            "threadsSpawned": int,
            "peakActiveThreads": int,
            "opsByUnit": dict,
            "opsByFu": list,
            "memory": dict,
            "opcache": dict,
            "writeback": dict,
            "stalls": dict,
            "threads": list,
            "invariant": dict,
        },
    )
    if FAILURES:
        return

    check(doc["schema"] in ("procoup-stats/1", "procoup-stats/2"),
          label, "wrong schema id")
    # The faults block is what distinguishes /2 from /1 — its presence
    # and the schema version must agree, so clean runs stay /1.
    if doc["schema"] == "procoup-stats/2":
        check("faults" in doc, label, "schema /2 without faults block")
        if "faults" in doc:
            validate_faults(label, doc)
    else:
        check("faults" not in doc, label, "schema /1 with faults block")

    machine = doc["machine"]
    expect_keys(
        label + ".machine",
        machine,
        {"name": str, "clusters": int, "fus": int,
         "interconnect": str, "arbitration": str},
    )
    expect_keys(
        label + ".memory",
        doc["memory"],
        {"accesses": int, "hits": int, "misses": int, "parked": int,
         "parkedCycles": int, "bankDelayCycles": int},
    )
    expect_keys(
        label + ".opcache",
        doc["opcache"],
        {"hits": int, "misses": int, "lineWaitCycles": int},
    )
    expect_keys(
        label + ".writeback",
        doc["writeback"],
        {"writebacks": int, "remoteWrites": int, "stallCycles": int,
         "grantsByCluster": list, "denialsByCluster": list},
    )

    stalls = doc["stalls"]
    expect_keys(
        label + ".stalls",
        stalls,
        {"causes": list, "total": list, "byCluster": list,
         "byFu": list},
    )
    check(stalls["causes"] == CAUSES, label,
          f"taxonomy mismatch: {stalls['causes']}")

    fus = machine["fus"]
    cycles = doc["cycles"]
    check(len(doc["opsByFu"]) == fus, label, "opsByFu length != fus")
    check(len(stalls["byFu"]) == fus, label, "stalls.byFu length != fus")
    check(
        len(stalls["byCluster"]) == machine["clusters"],
        label,
        "stalls.byCluster length != clusters",
    )

    # The conservation identity, at every level.
    n = len(CAUSES)
    check(len(stalls["total"]) == n, label, "stalls.total arity")
    check(
        sum(stalls["total"]) == cycles * fus,
        label,
        f"cycles*fus == {cycles * fus} but accounted "
        f"{sum(stalls['total'])}",
    )
    check(stalls["total"][0] == doc["totalOps"], label,
          "issued bucket != totalOps")

    col_sums = [0] * n
    for rec in stalls["byFu"]:
        expect_keys(label + ".stalls.byFu[]", rec,
                    {"fu": int, "cluster": int, "type": str,
                     "counts": list})
        counts = rec["counts"]
        check(len(counts) == n, label, "per-FU counts arity")
        check(
            sum(counts) == cycles,
            label,
            f"fu {rec['fu']} accounts {sum(counts)} != cycles {cycles}",
        )
        check(counts[0] == doc["opsByFu"][rec["fu"]], label,
              f"fu {rec['fu']} issued != opsByFu")
        for k, v in enumerate(counts):
            col_sums[k] += v
    check(col_sums == stalls["total"], label,
          "per-FU totals disagree with stalls.total")

    cl_sums = [0] * n
    for counts in stalls["byCluster"]:
        for k, v in enumerate(counts):
            cl_sums[k] += v
    check(cl_sums == stalls["total"], label,
          "per-cluster totals disagree with stalls.total")

    thread_ops = 0
    for t in doc["threads"]:
        expect_keys(label + ".threads[]", t,
                    {"id": int, "name": str, "spawnCycle": int,
                     "endCycle": int, "opsIssued": int, "stalls": list})
        check(t["stalls"][0] == t["opsIssued"], label,
              f"thread {t['id']} issued bucket != opsIssued")
        thread_ops += t["opsIssued"]
    check(thread_ops == doc["totalOps"], label,
          f"thread opsIssued sum {thread_ops} != totalOps "
          f"{doc['totalOps']}")

    inv = doc["invariant"]
    expect_keys(label + ".invariant", inv,
                {"fuCycles": int, "accounted": int, "balanced": bool})
    check(inv["balanced"] is True, label,
          "simulator reports unbalanced accounting")
    check(inv["fuCycles"] == inv["accounted"] == cycles * fus, label,
          "invariant block inconsistent")


def run_pcsim(pcsim, label, flags):
    """Run pcsim with --stats-json, return the parsed document."""
    with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
        cmd = [pcsim, "--stats-json", tmp.name] + flags
        proc = subprocess.run(cmd, capture_output=True, text=True)
        check(proc.returncode == 0, label,
              f"pcsim failed: {proc.stderr.strip()}")
        if proc.returncode != 0:
            return None
        try:
            return json.load(open(tmp.name))
        except json.JSONDecodeError as e:
            check(False, label, f"invalid JSON: {e}")
            return None


def validate_bundle(path):
    """A harness --stats-json bundle: stats and/or error records."""
    n = 0
    doc = load(path, "bundle")
    if doc is None:
        return 0
    check(doc.get("schema") in ("procoup-stats-bundle/1",
                                "procoup-stats-bundle/2"),
          path, f"bad bundle schema '{doc.get('schema')}'")
    for run in doc.get("runs", []):
        label = f"{path}:{run.get('label', '?')}"
        check("label" in run, path, "bundle entry without label")
        if "error" in run:
            check(doc.get("schema") == "procoup-stats-bundle/2", path,
                  "error record in a /1 bundle")
            validate_error_record(label, run["error"])
        else:
            check("stats" in run, label, "entry has neither stats "
                  "nor error")
            if "stats" in run:
                validate(label, run["stats"])
        n += 1
    return n


def load(path, what):
    """The JSON document at path, or None after flagging it."""
    try:
        return json.load(open(path))
    except (OSError, json.JSONDecodeError) as e:
        check(False, path, f"unreadable {what}: {e}")
        return None


def require(validator, doc, label):
    """For another script: validator(doc, label), unless load() already
    flagged doc as None; exit 1 with each failure on stderr unless the
    document holds."""
    if doc is not None:
        validator(doc, label)
    if FAILURES:
        for f in FAILURES:
            print(f"error: {f}", file=sys.stderr)
        sys.exit(1)


def validate_fuzz(doc, path):
    """A collect_fuzz.py "procoup-fuzz/1" document."""
    check(doc.get("schema") == "procoup-fuzz/1", path,
          f"bad fuzz schema '{doc.get('schema')}'")
    expect_keys(path, doc,
                {"programs": int, "points": int, "wall_ms": (int, float),
                 "programs_per_sec": (int, float), "mismatches": dict,
                 "corpus": dict})
    mm = doc.get("mismatches", {})
    expect_keys(path + ".mismatches", mm,
                {"mode": int, "fault": int, "sim_error": int,
                 "total": int})
    if all(isinstance(mm.get(k), int)
           for k in ("mode", "fault", "sim_error", "total")):
        check(mm["total"] == mm["mode"] + mm["fault"] + mm["sim_error"],
              path, f"mismatch counts do not add up: {mm}")
        check(mm["total"] == 0, path,
              f"fuzz soak reported {mm['total']} mismatch(es)")
    programs, points = doc.get("programs"), doc.get("points")
    if isinstance(programs, int) and isinstance(points, int):
        check(programs > 0 and points > 0, path,
              f"empty soak ({programs} programs)")
        check(programs <= 0 or points % programs == 0, path,
              f"{points} points is not a multiple of {programs} programs")
    corpus = doc.get("corpus", {})
    expect_keys(path + ".corpus", corpus,
                {"pass": int, "xfail": int, "total": int})
    if isinstance(corpus.get("total"), int):
        check(corpus["total"] >= 1, path, "regression corpus is empty")


def validate_sweep_report(doc, path):
    """A harness --sweep-report document, local or daemon-mode."""
    check(doc.get("schema") in ("procoup-sweep/1", "procoup-sweep/2"),
          path, f"bad sweep-report schema '{doc.get('schema')}'")
    expect_keys(path, doc,
                {"harness": str, "jobs": int, "points": int,
                 "wall_ms": (int, float),
                 "point_wall_ms_total": (int, float),
                 "compile_cache": dict})
    jobs, points = doc.get("jobs"), doc.get("points")
    if isinstance(jobs, int) and isinstance(points, int):
        check(jobs >= 1 and points >= 0, path,
              f"jobs {jobs} or points {points} out of range")
    cc = doc.get("compile_cache", {})
    expect_keys(path + ".compile_cache", cc,
                {"enabled": bool, "hits": int, "misses": int,
                 "hit_rate": (int, float)})
    if all(isinstance(cc.get(k), (int, float))
           for k in ("hits", "misses", "hit_rate")) and \
       cc["hits"] + cc["misses"] > 0:
        # The report rounds the rate to four decimal places.
        rate = cc["hits"] / (cc["hits"] + cc["misses"])
        check(abs(rate - cc["hit_rate"]) <= 5e-5, path,
              f"hit_rate {cc['hit_rate']} inconsistent with "
              f"{cc['hits']} hits and {cc['misses']} misses")

    if "journal" in doc:
        expect_keys(path + ".journal", doc["journal"],
                    {"dir": str, "replayed": int, "executed": int,
                     "compiles": int})
    if "disk_cache" in doc:
        expect_keys(path + ".disk_cache", doc["disk_cache"],
                    {"dir": str, "compiles": int, "hits": int,
                     "stores": int, "corrupt": int})

    if "daemon" in doc:
        daemon = doc["daemon"]
        counters = ["leases_issued", "leases_expired",
                    "leases_reassigned", "heartbeats", "worker_lost",
                    "results_streamed", "replayed", "executed",
                    "reconnects", "compiles"]
        expect_keys(path + ".daemon", daemon,
                    dict({"socket": str}, **{k: int for k in counters}))
        for k in counters:
            if isinstance(daemon.get(k), int):
                check(daemon[k] >= 0, path, f"daemon.{k} negative")
        if all(isinstance(daemon.get(k), int)
               for k in ("replayed", "executed")) and \
           isinstance(doc.get("points"), int):
            # Every point is committed exactly once per session,
            # either replayed from the write-ahead journal or freshly
            # executed.
            check(daemon["replayed"] + daemon["executed"]
                  == doc["points"], path,
                  f"daemon replayed {daemon['replayed']} + executed "
                  f"{daemon['executed']} != points {doc['points']}")
        if isinstance(daemon.get("leases_issued"), int) and \
           isinstance(daemon.get("executed"), int):
            check(daemon["leases_issued"] >= daemon["executed"], path,
                  "daemon executed more points than it leased")

    failed = doc.get("failed_points")
    failures = doc.get("failures")
    check((failed is None) == (failures is None), path,
          "failed_points and failures must appear together")
    if failures is not None:
        check(doc.get("schema") == "procoup-sweep/2", path,
              "failures present in a /1 sweep report")
        check(isinstance(failed, int) and failed == len(failures),
              path, f"failed_points {failed} != |failures| "
                    f"{len(failures) if isinstance(failures, list) else '?'}")
        for rec in failures:
            expect_keys(path + ".failures[]", rec,
                        {"label": str, "kind": str, "cycle": int,
                         "retries": int})
            if "kind" in rec:
                check(rec["kind"] in ERROR_KINDS, path,
                      f"unknown failure kind '{rec.get('kind')}'")
    else:
        check(doc.get("schema") == "procoup-sweep/1", path,
              "clean sweep report must stay procoup-sweep/1")


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def frames(blob):
    """Yield (offset, checksum, payload) for each whole PCFR frame at the
    head of blob. A torn tail, which a live or killed writer leaves,
    ends the walk; a header with the wrong magic or version raises
    ValueError. Checksums are the caller's to check."""
    off = 0
    while off + FRAME_HEADER <= len(blob):
        magic, version, length, checksum = struct.unpack_from(
            "<IIQQ", blob, off)
        if magic != FRAME_MAGIC:
            raise ValueError(f"bad frame magic {magic:#x} at offset {off}")
        if version != FORMAT_VERSION:
            raise ValueError(f"bad format version {version} at offset "
                             f"{off}")
        end = off + FRAME_HEADER + length
        if end > len(blob):
            return
        yield off, checksum, blob[off + FRAME_HEADER:end]
        off = end


def record_files(jdir):
    """The framed record files of a journal directory."""
    return sorted(glob.glob(os.path.join(jdir, "*.journal")) +
                  glob.glob(os.path.join(jdir, "*.wal")))


def journal_records(jdir):
    """A cheap lower bound on the records a live writer has committed
    to jdir: the whole frames before any damage, checksums unread."""
    n = 0
    for path in record_files(jdir):
        try:
            for _ in frames(open(path, "rb").read()):
                n += 1
        except (OSError, ValueError):
            pass
    return n


def validate_journal_record(label, payload):
    """The JSON meta-header leading every binary outcome record."""
    if len(payload) < 8:
        check(False, label, "record too short for its header")
        return
    (hlen,) = struct.unpack_from("<Q", payload, 0)
    if 8 + hlen > len(payload):
        check(False, label, "record header overruns the payload")
        return
    try:
        head = json.loads(payload[8:8 + hlen])
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        check(False, label, f"record header is not JSON: {e}")
        return
    expect_keys(label, head,
                {"label": str, "fingerprint": str, "threw": int,
                 "failed": bool, "error_kind": str, "retries": int,
                 "compile_cached": bool})
    if "label" in head:
        check(len(head["label"]) > 0, label, "record without a label")
    if "fingerprint" in head:
        fp = head["fingerprint"]
        check(len(fp) == 16 and all(c in "0123456789abcdef"
                                    for c in fp),
              label, f"malformed point fingerprint '{fp}'")
    if "threw" in head:
        check(head["threw"] in (0, 1, 2, 3), label,
              f"unknown threw class {head['threw']}")
    if "error_kind" in head:
        check(head["error_kind"] in ERROR_KINDS, label,
              f"unknown error kind '{head['error_kind']}'")
    if "retries" in head:
        check(head["retries"] >= 0, label, "negative retry count")


def validate_journal_dir(path):
    """A --journal directory: meta sidecars + framed record files."""
    n = 0
    metas = sorted(glob.glob(os.path.join(path, "*.meta.json")))
    check(len(metas) > 0, path, "no .meta.json sidecar in journal dir")
    for meta_path in metas:
        try:
            meta = json.load(open(meta_path))
        except (OSError, json.JSONDecodeError) as e:
            check(False, meta_path, f"unreadable meta sidecar: {e}")
            continue
        check(meta.get("schema") == "procoup-journal/1", meta_path,
              f"bad journal schema '{meta.get('schema')}'")
        expect_keys(meta_path, meta,
                    {"plan": str, "fingerprint": str, "points": int})

    files = record_files(path)
    check(len(files) > 0, path, "no .journal or .wal file in journal dir")
    for rec_path in files:
        blob = open(rec_path, "rb").read()
        try:
            for k, (off, checksum, payload) in enumerate(frames(blob)):
                check(fnv1a64(payload) == checksum, rec_path,
                      f"frame checksum mismatch at offset {off}")
                validate_journal_record(f"{rec_path}[{k}]", payload)
                n += 1
        except ValueError as e:
            check(False, rec_path, str(e))
    check(n > 0, path, "journal contains no records")
    return n


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pcsim",
                    help="path to the pcsim binary (required unless "
                         "only --fuzz documents are validated)")
    ap.add_argument("--bundle", action="append", default=[],
                    help="also validate this harness --stats-json "
                         "bundle (repeatable)")
    ap.add_argument("--fuzz", action="append", default=[],
                    help="also validate this collect_fuzz.py "
                         "BENCH_fuzz.json (repeatable)")
    ap.add_argument("--journal-dir", action="append", default=[],
                    help="also validate this --journal results "
                         "directory (repeatable)")
    ap.add_argument("--sweep-report", action="append", default=[],
                    help="also validate this harness --sweep-report "
                         "document (repeatable)")
    args = ap.parse_args()
    if not (args.pcsim or args.fuzz or args.journal_dir or
            args.sweep_report):
        ap.error("--pcsim required (or at least one --fuzz FILE / "
                 "--journal-dir DIR / --sweep-report FILE)")

    n = 0
    for mname, mflags in (MACHINES.items() if args.pcsim else []):
        for bench in BENCHMARKS:
            label = f"{bench}@{mname}"
            doc = run_pcsim(args.pcsim, label,
                            ["--benchmark", bench, "--mode", "coupled",
                             "--verify"] + mflags)
            if doc is None:
                continue
            validate(label, doc)
            check(doc.get("schema") == "procoup-stats/1", label,
                  "clean run must stay procoup-stats/1")
            n += 1

    if args.pcsim:
        # Fault injection: same workload, now a /2 document whose
        # faults block must be internally consistent — and still
        # verify.
        label = "Matrix@faulted"
        doc = run_pcsim(args.pcsim, label,
                        ["--benchmark", "Matrix", "--mode", "coupled",
                         "--verify", "--faults", "1.0", "--sanitize"])
        if doc is not None:
            validate(label, doc)
            check(doc.get("schema") == "procoup-stats/2", label,
                  "faulted run must be procoup-stats/2")
            if "faults" in doc:
                check(doc["faults"]["totalEvents"] > 0, label,
                      "faulted run injected nothing")
            n += 1

        # Fail-safe budget exhaustion: a structured error document
        # with a zero exit, never a crash.
        label = "Matrix@cycle-capped"
        doc = run_pcsim(args.pcsim, label,
                        ["--benchmark", "Matrix", "--mode", "coupled",
                         "--cycle-cap", "50", "--fail-safe"])
        if doc is not None:
            validate(label, doc)
            check(doc.get("error", {}).get("kind") == "cycle-limit",
                  label, f"expected a cycle-limit error, got {doc}")
            n += 1

    for path in args.bundle:
        n += validate_bundle(path)
    for path in args.journal_dir:
        n += validate_journal_dir(path)
    for validator, paths, what in (
            (validate_fuzz, args.fuzz, "fuzz document"),
            (validate_sweep_report, args.sweep_report, "sweep report")):
        for path in paths:
            doc = load(path, what)
            if doc is not None:
                validator(doc, path)
                n += 1

    if FAILURES:
        for f in FAILURES:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print(f"ok: {n} stats documents validated against "
          "procoup-stats/1 + /2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
