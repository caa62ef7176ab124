#ifndef PROCOUP_EXP_HARNESS_HH
#define PROCOUP_EXP_HARNESS_HH

/**
 * @file
 * Shared main() scaffolding for the experiment harnesses under
 * `bench/`. A harness builds an ExperimentPlan and calls
 * harnessMain(); everything else — flag parsing, the worker pool, the
 * compile cache, stats bundles, sweep reports — is implemented once
 * here. pcsim runs as a harness over a one-point plan and inherits
 * every flag below; a tool adds its own flags through parse()'s
 * handler, as fuzz_soak adds --programs N and --first-seed S. A
 * valued flag takes `--flag X` or `--flag=X`; a value that does not
 * parse in full or is out of range ends in usage.
 *
 *   --jobs N            worker threads (default: hardware concurrency;
 *                       1 = legacy serial execution)
 *   --list              print every sweep-point label and exit
 *   --filter SUBSTRING  run only points whose label contains SUBSTRING
 *                       and print a per-point summary instead of the
 *                       harness's full table rendering
 *   --stats-json FILE   write a "procoup-stats-bundle/1" JSON bundle
 *                       with every executed point's stall-cause
 *                       attribution ("-" = stdout)
 *   --sweep-report FILE write a "procoup-sweep/1" JSON record of the
 *                       sweep's wall-clock, job count, and compile-
 *                       cache hit rate (scripts/run_all.sh collects
 *                       these into BENCH_sweep.json; "-" = stdout)
 *   --no-compile-cache  compile every point afresh (the legacy
 *                       behavior, for baseline measurements)
 *   --sanitize[=N]      re-validate simulator invariants every N
 *                       cycles on every point (default N = 1024; N
 *                       only as --sanitize=N)
 *   --faults X          attach fault::FaultPlan::atIntensity(X) to
 *                       every point (stats bundles switch to schema
 *                       procoup-stats/2 with a "faults" block)
 *   --fault-seed S      seed of the --faults fault RNG stream
 *   --fail-safe         record a point whose simulation throws
 *                       (deadlock, budget, sanitizer) as a structured
 *                       error record and keep the sweep running
 *   --retry-faulted     with --fail-safe: retry a failed faulted
 *                       point under reseeded fault plans, bounded by
 *                       --retries with exponential backoff + jitter
 *   --retries N         retry budget shared by --retry-faulted and
 *                       worker respawns (default 2)
 *   --journal DIR       write-ahead results journal: every completed
 *                       point is durably recorded in DIR; re-running
 *                       after a crash replays recorded points
 *                       bit-identically and executes only the rest
 *   --disk-cache DIR    persistent compile cache shared across
 *                       processes and runs
 *   --isolate-workers   shard points across supervised child
 *                       processes; a crashed or hung child becomes a
 *                       worker-crash / worker-timeout error record
 *   --worker-timeout-ms N  per-point wall-clock budget under
 *                       --isolate-workers (default 120000)
 *   --connect SOCK      submit the plan to a running procoupd sweep
 *                       daemon on Unix socket SOCK instead of
 *                       executing locally; results stream back per
 *                       point and every output (rendering, bundle,
 *                       sweep report) is byte-identical to a local
 *                       run, modulo the report's "daemon" block.
 *                       Incompatible with --isolate-workers and
 *                       --journal: the daemon owns isolation and
 *                       durability on its side of the socket.
 *
 * (A hidden --worker flag turns the process into a worker for
 * --isolate-workers; see exp/worker.hh. It is never typed.)
 *
 * Output determinism: the rendering callback runs after the sweep
 * completes, over outcomes in plan order, so harness output is
 * byte-identical at any --jobs count — and, for journaled sweeps, at
 * any interruption point. New report/bundle keys appear only when the
 * corresponding flag is on, so existing outputs stay byte-identical.
 */

#include <charconv>
#include <functional>
#include <string>

#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"

namespace procoup {
namespace exp {

/**
 * The one argv parser of every harness, pcsim and procoupd: a cursor.
 * A tool's loop calls next(), then offers arg() to each flag it knows;
 * the first call that matches consumes the argument and its value and
 * returns true. bad() ends the process through the tool's usage.
 */
class Args
{
  public:
    using Usage = void (*)(const char* argv0);  ///< prints, then exits

    Args(int argc, char** argv, Usage usage)
        : _argc(argc), _argv(argv), _usage(usage)
    {}

    bool next();  ///< step to the next argument; false past the last
    const std::string& arg() const { return _arg; }

    /** `flag` exactly: *out = true. */
    bool set(const char* flag, bool* out);

    /** `flag X` or `flag=X`: *out = X (a missing X is bad). */
    bool value(const char* flag, std::string* out);

    /** value(), whose X must parse in full with std::from_chars and
     *  lie in [lo, hi]; anything else is bad(). */
    template <class T>
    bool number(const char* flag, T lo, T hi, T* out);

    /** Name the argument, and the value it took, then call usage. */
    [[noreturn]] void bad() const;

  private:
    [[noreturn]] void fail(const std::string& what) const;

    int _argc;
    char** _argv;
    Usage _usage;
    int _i = 0;
    std::string _arg;
    const char* _flag = nullptr;  ///< the valued flag arg() matched
    std::string _value;
};

template <class T>
bool
Args::number(const char* flag, T lo, T hi, T* out)
{
    std::string v;
    if (!value(flag, &v))
        return false;
    const char* end = v.data() + v.size();
    const auto [stop, ec] = std::from_chars(v.data(), end, *out);
    // Written so that a NaN fails the range test.
    if (ec != std::errc() || stop != end || !(*out >= lo && *out <= hi))
        bad();
    return true;
}

/** Parsed common harness flags. */
struct HarnessOptions
{
    bool list = false;
    std::string filter;
    std::string statsJsonPath;
    std::string sweepReportPath;

    /** Sanitizer cadence applied to every point (0 = off). */
    std::uint64_t sanitizeEveryCycles = 0;

    /** Fault intensity applied to every point (0 = no faults). */
    double faultIntensity = 0.0;
    std::uint64_t faultSeed = 1;

    /** --connect SOCK: run the sweep on a procoupd daemon ("" =
     *  local execution). */
    std::string connectSocket;

    /** Every other flag. */
    RunnerOptions runner;

    /**
     * Parse argv: each argument goes first to @p own, a tool's handler
     * for its own flags and inputs, then to the common set. A bad
     * argument ends in @p usage (null: the harness usage). All harness
     * binaries accept exactly the common set.
     */
    static HarnessOptions parse(int argc, char** argv,
                                const std::function<bool(Args&)>& own = {},
                                Args::Usage usage = nullptr);
};

/**
 * Execute @p plan under @p options and hand the outcomes to
 * @p render. Handles --list (prints labels, no runs), --filter (runs
 * the matching subset and prints per-point summaries instead of
 * calling @p render), the --stats-json bundle, and the --sweep-report
 * record. @return process exit code.
 */
int runHarness(const ExperimentPlan& plan, const HarnessOptions& options,
               const std::function<void(const SweepResult&)>& render);

/** Parse-and-run convenience: the usual last line of a harness main. */
int harnessMain(const ExperimentPlan& plan, int argc, char** argv,
                const std::function<void(const SweepResult&)>& render);

/** Render the "procoup-stats-bundle/1" JSON for @p result (one entry
 *  per executed point, labeled with the point's label). A bundle
 *  containing fail-safe error records is "procoup-stats-bundle/2":
 *  failed points carry an "error" object instead of "stats". */
std::string formatStatsBundle(const SweepResult& result);

/** Render the "procoup-sweep/1" JSON sweep report — or /2, with a
 *  "failures" array, when any point failed under --fail-safe. */
std::string formatSweepReport(const ExperimentPlan& plan,
                              const SweepResult& result,
                              const HarnessOptions& options);

/** Write @p text to the file @p path, or to stdout when @p path is
 *  "-"; a file that cannot be written ends the process with status 1. */
void writeOutput(const std::string& path, const std::string& text);

/** num/den as a fixed 2-decimal string ("0.00" when den == 0). */
std::string ratio(double num, double den);

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_HARNESS_HH
