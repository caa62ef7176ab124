#!/usr/bin/env python3
"""scripts/bench_compare.py on canned perfbench result lines: every
verdict is reached, and the exit status follows worse metrics and
failure shares.

    python3 tests/bench_compare_test.py
"""

import json
import pathlib
import subprocess
import sys
import tempfile

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "bench_compare.py"


def line(metrics, failed=0, attempted=100):
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()},
    })


def runs(n, **series):
    """@p n result lines; each keyword maps a metric to f(run index)."""
    return [{k: f(i) for k, f in series.items()} for i in range(n)]


def compare(parent, change, parent_failed=0, change_failed=0):
    with tempfile.TemporaryDirectory() as d:
        files = []
        for name, lines, failed in (("parent", parent, parent_failed),
                                    ("change", change, change_failed)):
            path = pathlib.Path(d) / (name + ".jsonl")
            path.write_text("".join(line(m, failed) + "\n" for m in lines))
            files.append(str(path))
        p = subprocess.run([sys.executable, str(SCRIPT)] + files,
                           capture_output=True, text=True)
    verdicts = {}
    for row in p.stdout.splitlines():
        fields = row.split()
        if fields and fields[-1] in ("worse", "unresolved", "gain", "same"):
            verdicts[fields[0]] = fields[-1]
    return p.returncode, verdicts, p.stdout


def check(cond, what, out):
    if not cond:
        sys.exit("FAIL: %s\n%s" % (what, out))


def main():
    steady = lambda base: (lambda i: base * (1 + 0.01 * (i % 3)))
    # Wide quartile spread on both sides, overlapping.
    noisy = lambda base: (lambda i: base * (0.5 + 0.15 * i))
    both = dict(setup_s=steady(0.004), point_ms_p90=steady(10.0),
                peak_rss_mb=steady(15.5))

    parent = runs(10, wall_s=steady(1.6), points_per_s=steady(700.0),
                  point_ms_p50=noisy(1.0), **both)
    change = runs(10, wall_s=steady(0.8), points_per_s=steady(1400.0),
                  point_ms_p50=noisy(1.05), **both)
    code, v, out = compare(parent, change)
    check(code == 0, "exit 0 without a worse metric", out)
    check(v.get("wall_s") == "gain", "wall_s gain", out)
    check(v.get("points_per_s") == "gain", "points_per_s gain", out)
    check(v.get("point_ms_p50") == "unresolved", "p50 unresolved", out)
    check(v.get("setup_s") == "same", "setup_s same", out)
    check(len(v) == 6, "one verdict per end-to-end metric", out)

    # Slower by more than the 0.25 bound.
    worse = runs(10, wall_s=steady(2.2), points_per_s=steady(500.0),
                 point_ms_p50=steady(1.0), **both)
    code, v, out = compare(parent, worse)
    check(code == 1, "exit 1 on a worse metric", out)
    check(v.get("wall_s") == "worse", "wall_s worse", out)
    check(v.get("points_per_s") == "worse", "points_per_s worse", out)

    # A wide spread is not unresolved when every change run wins.
    spread = runs(10, wall_s=noisy(0.2), points_per_s=steady(700.0),
                  point_ms_p50=noisy(1.0), **both)
    code, v, out = compare(parent, spread)
    check(v.get("wall_s") == "gain", "dominating change is a gain", out)

    # Equal metrics, but a larger failure share.
    code, v, out = compare(parent, parent, change_failed=3)
    check(code == 1, "exit 1 on a larger failure share", out)
    check("change failed/attempted: 30/1000" in out, "failure count", out)
    print("bench_compare: all verdicts reached")


if __name__ == "__main__":
    main()
