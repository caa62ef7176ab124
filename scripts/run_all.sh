#!/bin/sh
# Build, test, and regenerate every paper table/figure and ablation.
# Leaves test_output.txt, bench_output.txt, BENCH_sweep.json,
# BENCH_core.json, BENCH_faults.json, and BENCH_fuzz.json at the
# repository root.
set -e
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

{
    for b in build/bench/*; do
        [ -f "$b" ] && [ -x "$b" ] || continue
        echo "==================================================="
        echo "== $(basename "$b")"
        echo "==================================================="
        "$b"
        echo
    done
} 2>&1 | tee bench_output.txt

# Sweep-engine characterization: run every runner-based harness (all
# of bench/ except the google-benchmark micro_speed binary) in three
# configurations and collect the per-harness wall-clock and
# compile-cache hit rates into BENCH_sweep.json:
#   legacy  — jobs=1, compile cache off (the pre-runner behavior)
#   jobs1   — jobs=1, cache on (cache savings alone)
#   jobsN   — parallel workers, cache on
JOBS=$(nproc 2>/dev/null || echo 4)
[ "$JOBS" -lt 4 ] && JOBS=4
SWEEPDIR=build/sweep_reports
mkdir -p "$SWEEPDIR"
REPORTS=""
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name=$(basename "$b")
    [ "$name" = "micro_speed" ] && continue
    "$b" --jobs 1 --no-compile-cache \
        --sweep-report "$SWEEPDIR/${name}_legacy.json" > /dev/null
    "$b" --jobs 1 \
        --sweep-report "$SWEEPDIR/${name}_jobs1.json" > /dev/null
    "$b" --jobs "$JOBS" \
        --sweep-report "$SWEEPDIR/${name}_jobsN.json" > /dev/null
done
python3 scripts/collect_sweep.py --out BENCH_sweep.json \
    "$SWEEPDIR"/*.json

# Fault-degradation curve: rerun the fault_degradation harness for
# its per-point stats bundle (the bench_output.txt pass above printed
# the human-readable table) and reduce it to BENCH_faults.json. The
# collector exits non-zero if the coupled machine amplifies injected
# memory latency worse than the uncoupled STS machine.
build/bench/fault_degradation --jobs "$JOBS" \
    --stats-json build/fault_stats_bundle.json > /dev/null
python3 scripts/collect_faults.py --out BENCH_faults.json \
    build/fault_stats_bundle.json

# Fuzz farm: a 500-program differential soak (every generated
# program on both machines x all modes, clean and fault-injected),
# reduced to BENCH_fuzz.json. The collector exits non-zero on any
# mode/fault/sim-error mismatch, and the schema checker validates the
# document shape.
python3 scripts/collect_fuzz.py --harness build/bench/fuzz_soak \
    --jobs "$JOBS" --programs 500 --out BENCH_fuzz.json
python3 scripts/check_stats_schema.py --fuzz BENCH_fuzz.json

# Durable soak: the fuzz farm under a write-ahead results journal
# (--journal DIR). A killed run of this step resumes from
# build/soak_journal on the next invocation instead of starting over;
# the journal directory is then validated record by record.
mkdir -p build/soak_journal
build/bench/fuzz_soak --jobs "$JOBS" --journal build/soak_journal \
    > build/soak_journal.out
python3 scripts/check_stats_schema.py --journal-dir build/soak_journal

# Simulator-core throughput: the google-benchmark microbenchmarks,
# distilled to the median and min real time and the median simulated
# cycles/second over three repetitions.
build/bench/micro_speed --benchmark_format=json \
    --benchmark_min_time=0.2 --benchmark_repetitions=3 \
    > build/micro_speed_raw.json
python3 scripts/collect_core.py --out BENCH_core.json \
    build/micro_speed_raw.json
