#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

/**
 * @file
 * Shared pieces of the benchmark driver: run options, the raw report
 * the driver hands to perfbench/run.py, the span tracer, result
 * digests, and the traced per-point pipeline that mirrors
 * exp::executeSweepPoint call for call.
 *
 * The driver measures each layer from outside, through its public
 * calls: spans wrap calls into lang, ir, opt, sched, sim, benchmarks
 * and exp; nothing inside the library is instrumented.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "procoup/core/node.hh"
#include "procoup/exp/cache.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/serialize.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);
double msSince(Clock::time_point start);

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string outPath;   ///< raw report (JSON)
    std::string workDir;   ///< scratch space inside the checkout
    std::string daemonBin; ///< procoupd, for service-soak
};

/** Set-up repetitions: several set-ups are timed and run.py reports
 *  their median. The traced run needs only one. */
int setupReps(const Options& opts);

/** The minimum number of measured passes, whatever --seconds says. */
int minPasses(const Options& opts);

/** First gen::generate seed of workload seed @p seed. Each workload
 *  seed owns a disjoint generator range, so point labels, which carry
 *  the generator seed, never collide across workload seeds. */
std::uint64_t generatorFirstSeed(std::uint64_t seed);

/**
 * Everything one run measured. run.py turns it into the metrics of
 * BENCHMARK.json; the driver only records samples and checks outputs.
 */
struct Report
{
    /** One measured pass over the workload's points. */
    struct Pass
    {
        double wallS = 0.0;
        double pointsPerS = 0.0;
        std::vector<double> pointMs;
    };

    std::vector<double> setupS;
    std::vector<Pass> passes;

    std::uint64_t attempted = 0;      ///< point executions
    std::uint64_t failed = 0;         ///< wrong, drifting or failed
    std::vector<std::string> errors;  ///< first few diagnostics

    /** Per-point digests, from the first pass that produced each. */
    std::map<std::string, std::string> digests;

    /** Deterministic work counts; every pass must repeat them. */
    std::map<std::string, double> counts;

    /** Per-layer samples of the traced run, one per traced pass. */
    std::map<std::string, std::vector<double>> layers;

    /** Digest @p digest of point @p label: the first one is kept, a
     *  later differing one is counted as a failure. */
    void checkDigest(const std::string& label, const std::string& digest,
                     const char* where);

    /** The same for a deterministic count. */
    void checkCount(const std::string& name, double value);

    void fail(const std::string& why);

    void layer(const std::string& name, double value)
    {
        layers[name].push_back(value);
    }

    /** The report as one JSON object; @p tail holds more members,
     *  each preceded by a comma. */
    std::string toJson(const Options& opts, const std::string& tail) const;
};

/**
 * In-memory span recorder. A span has a name, start, end, parent and
 * the trace id of the point it belongs to. When disabled, spans cost
 * one branch and record nothing, so the same code serves the bare and
 * the traced passes.
 */
class Tracer
{
  public:
    class Scope
    {
      public:
        Scope(Tracer* t, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer* _t;
        int _index = -1;
        int _savedParent = -1;
    };

    bool enabled = false;

    Scope span(const char* name) { return Scope(this, name); }

    /** Spans recorded from now on belong to point @p label. */
    void setTrace(const std::string& label);

    /** Start a traced pass; selfTimesMs() covers spans since then. */
    std::size_t mark() const { return _spans.size(); }

    /** Self time (duration minus direct children) per span name, in
     *  ms, over spans recorded since @p mark. */
    std::map<std::string, double> selfTimesMs(std::size_t mark) const;

    /** Durations in µs of every span named @p name since @p mark. */
    std::vector<double> durationsUs(std::size_t mark,
                                    const std::string& name) const;

    /** Chrome trace-event JSON of every recorded span. */
    std::string chromeJson() const;

  private:
    struct Span
    {
        const char* name;  ///< a string literal
        std::int64_t startNs;
        std::int64_t endNs;
        int parent;
        int traceId;
    };

    std::vector<Span> _spans;
    std::vector<std::string> _traceIds;
    int _current = -1;
    int _traceId = -1;
    Clock::time_point _epoch = Clock::now();
};

/** fnv1a64 of the serialized RunStats plus the final memory. */
std::string runDigest(const procoup::sim::RunStats& stats,
                      const std::vector<procoup::isa::Value>& memory);

/** fnv1a64 of the serialized CompileResult. */
std::string compileDigest(const procoup::sched::CompileResult& c);

/** IR instruction count of a module. */
std::uint64_t irInstrs(const procoup::ir::Module& mod);

/** Static schedule totals (FuncScheduleInfo sums) of compiled programs. */
struct ScheduleCounts
{
    std::uint64_t ops = 0;
    std::uint64_t rows = 0;
    std::uint64_t copies = 0;

    void add(const procoup::sched::CompileResult& c);
};

/** Accumulated over the points of one pipeline pass. */
struct PipelineTotals
{
    std::uint64_t irInstrs = 0;
    std::uint64_t optInstrs = 0;
    ScheduleCounts sched;
    std::uint64_t cycles = 0;
    std::uint64_t issued = 0;       ///< issued FU-cycles
    std::uint64_t noReadyOp = 0;    ///< no-ready-op FU-cycles
    std::uint64_t fuCycles = 0;     ///< all FU-cycles
};

/**
 * Compile @p source exactly as sched::compile does, one public call per
 * layer: lang::parse -> ir::buildModule(forms) -> opt::optimize ->
 * sched::compileModule(runOptimizer = false). Spans go to @p tracer.
 */
procoup::sched::CompileResult
pipelineCompile(const std::string& source,
                const procoup::config::MachineConfig& machine,
                const procoup::sched::CompileOptions& options,
                Tracer& tracer, PipelineTotals& totals);

/**
 * Execute one sweep point the way exp::executeSweepPoint does: a
 * compile-cache lookup (a hit on @p warmCache), the layer-by-layer
 * compile the first time a compile key is seen in this pass, then bind,
 * run and verify. Returns the run digest; a wrong result or a
 * simulation error is reported to @p report.
 */
std::string pipelinePoint(const procoup::exp::SweepPoint& point,
                          procoup::exp::CompileCache& warmCache,
                          std::set<std::string>& seenKeys, Tracer& tracer,
                          PipelineTotals& totals, Report& report,
                          double* runMs);

/** Run @p setup once, timed into report.setupS; @return its result. */
template <typename Setup>
auto
timedSetup(Setup&& setup, Report& report)
{
    const auto start = Clock::now();
    auto state = setup();
    report.setupS.push_back(secondsSince(start));
    return state;
}

/**
 * Time one more set-up, discarding its result, while fewer than
 * setupReps() have run (or all the missing ones when @p all). Called
 * between passes, so a slow phase of the host cannot cover every
 * repetition.
 */
template <typename Setup>
void
repeatSetup(const Options& opts, Setup&& setup, Report& report,
            bool all = false)
{
    while (static_cast<int>(report.setupS.size()) < setupReps(opts)) {
        timedSetup(setup, report);
        if (!all)
            break;
    }
}

/** Faulted point label -> label of its clean twin. */
using FaultTwins = std::vector<std::pair<std::string, std::string>>;

/**
 * pipelinePoint() over every point of @p plan. When the tracer is on,
 * the pass's spans become per-layer samples, including
 * fault.overhead_ratio (faulted run time over clean-twin run time).
 * @return the pass's wall ms
 */
double pipelinePass(const procoup::exp::ExperimentPlan& plan,
                    procoup::exp::CompileCache& warmCache, Tracer& tracer,
                    const FaultTwins& twins, Report& report);

/** Check the deterministic compile counts of a pass. */
void checkCompileCounts(const PipelineTotals& t, Report& report);
void checkScheduleCounts(const ScheduleCounts& s, Report& report);

/** Check the deterministic simulation counts of a pass. */
void checkSimCounts(const PipelineTotals& t, Report& report);

/** Add the issue-slot accounting of @p stats to @p totals. */
void addRunStats(const procoup::sim::RunStats& stats,
                 PipelineTotals& totals);

/** Record one traced pipeline pass (spans since @p mark) as per-layer
 *  samples: self time per layer, cache-hit latency, simulator speed. */
void recordPipelineLayers(const Tracer& tracer, std::size_t mark,
                          const PipelineTotals& totals, Report& report);

/** Write the Chrome trace and the per-layer self-time table of every
 *  traced pass into the work directory. */
void writeTrace(const Options& opts, const Tracer& tracer, Report& report);

double median(std::vector<double> v);

/** Write @p text to @p path; false on error. */
bool writeFile(const std::string& path, const std::string& text);

/** JSON string literal of @p s. */
std::string jsonString(const std::string& s);

void runSimThreaded(const Options& opts, Report& report);
void runCompileCold(const Options& opts, Report& report);
void runServiceSoak(const Options& opts, Report& report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
