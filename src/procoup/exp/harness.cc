#include "procoup/exp/harness.hh"

#include <cfloat>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "procoup/exp/service.hh"
#include "procoup/exp/worker.hh"
#include "procoup/fault/fault.hh"
#include "procoup/sched/report.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

namespace {

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--jobs N] [--list] [--filter SUBSTRING]\n"
        "       [--stats-json FILE] [--sweep-report FILE]\n"
        "       [--no-compile-cache] [--sanitize[=N]]\n"
        "       [--faults X] [--fault-seed S]\n"
        "       [--fail-safe] [--retry-faulted] [--retries N]\n"
        "       [--journal DIR] [--disk-cache DIR]\n"
        "       [--isolate-workers] [--worker-timeout-ms N]\n"
        "       [--connect SOCK]\n"
        "valued flags also take --flag=X; see src/procoup/exp/harness.hh\n",
        argv0);
    std::exit(1);
}

} // namespace

bool
Args::next()
{
    if (++_i >= _argc)
        return false;
    _arg = _argv[_i];
    _flag = nullptr;
    return true;
}

bool
Args::set(const char* flag, bool* out)
{
    if (_arg != flag)
        return false;
    *out = true;
    return true;
}

bool
Args::value(const char* flag, std::string* out)
{
    const std::size_t n = std::strlen(flag);
    if (_arg.compare(0, n, flag) != 0)
        return false;
    if (_arg.size() == n) {
        if (_i + 1 >= _argc)
            fail(strCat(flag, " needs a value"));
        *out = _argv[++_i];
    } else if (_arg[n] == '=') {
        *out = _arg.substr(n + 1);
    } else {
        return false;
    }
    _flag = flag;
    _value = *out;
    return true;
}

void
Args::bad() const
{
    fail(_flag ? strCat("bad value for ", _flag, ": '", _value, "'")
               : strCat("unknown option '", _arg, "'"));
}

void
Args::fail(const std::string& what) const
{
    std::fprintf(stderr, "%s: %s\n", _argv[0], what.c_str());
    _usage(_argv[0]);
    std::exit(1);  // a usage function that returned
}

HarnessOptions
HarnessOptions::parse(int argc, char** argv,
                      const std::function<bool(Args&)>& own,
                      Args::Usage usage_fn)
{
    HarnessOptions o;
    RunnerOptions& r = o.runner;
    bool no_compile_cache = false;
    int retries = r.retryPolicy.maxRetries();
    for (Args a(argc, argv, usage_fn ? usage_fn : usage); a.next();) {
        if (own && own(a))
            continue;
        // Bare --sanitize never takes the next argument as its N.
        if (a.arg() == "--sanitize") {
            o.sanitizeEveryCycles = 1024;
            continue;
        }
        if (!(a.number("--jobs", 1, INT_MAX, &r.jobs) ||
              a.set("--list", &o.list) ||
              a.value("--filter", &o.filter) ||
              a.value("--stats-json", &o.statsJsonPath) ||
              a.value("--sweep-report", &o.sweepReportPath) ||
              a.set("--no-compile-cache", &no_compile_cache) ||
              a.number("--sanitize", std::uint64_t{1}, UINT64_MAX,
                       &o.sanitizeEveryCycles) ||
              a.number("--faults", 0.0, DBL_MAX, &o.faultIntensity) ||
              a.number("--fault-seed", std::uint64_t{0}, UINT64_MAX,
                       &o.faultSeed) ||
              a.set("--fail-safe", &r.failSafe) ||
              a.set("--retry-faulted", &r.retryFaulted) ||
              a.number("--retries", 0, INT_MAX - 1, &retries) ||
              a.value("--journal", &r.journalDir) ||
              a.value("--disk-cache", &r.diskCacheDir) ||
              a.set("--isolate-workers", &r.isolateWorkers) ||
              a.number("--worker-timeout-ms", DBL_TRUE_MIN, DBL_MAX,
                       &r.workerTimeoutMs) ||
              a.value("--connect", &o.connectSocket)))
            a.bad();
    }
    r.cacheEnabled = !no_compile_cache;
    r.retryPolicy.maxAttempts = retries + 1;
    return o;
}

std::string
formatStatsBundle(const SweepResult& result)
{
    // Clean sweeps keep the byte-identical /1 encoding; only a bundle
    // that actually contains error records announces /2.
    const bool any_failed = result.failedCount() > 0;
    std::string out = strCat("{\"schema\": \"procoup-stats-bundle/",
                             any_failed ? 2 : 1, "\", \"runs\": [\n");
    bool first = true;
    for (const auto& o : result.outcomes) {
        if (o.failed) {
            out += strCat(
                first ? "" : ",\n", "{\"label\": ",
                jsonQuote(o.point->label),
                ",\n\"error\": {\"kind\": ",
                jsonQuote(simErrorKindName(o.errorKind)),
                ", \"cycle\": ", o.errorCycle,
                ", \"retries\": ", o.retries,
                ", \"message\": ", jsonQuote(o.error), "}}");
        } else {
            out += strCat(first ? "" : ",\n", "{\"label\": ",
                          jsonQuote(o.point->label), ",\n\"stats\": ",
                          sched::formatStatsJson(o.result.stats,
                                                 o.point->machine),
                          "}");
        }
        first = false;
    }
    out += "\n]}\n";
    return out;
}

std::string
formatSweepReport(const ExperimentPlan& plan, const SweepResult& result,
                  const HarnessOptions& options)
{
    double point_ms = 0.0;
    for (const auto& o : result.outcomes)
        point_ms += o.wallMs;
    const std::size_t failed = result.failedCount();
    std::string s = strCat(
        "{\"schema\": \"procoup-sweep/", failed ? 2 : 1,
        "\",\n\"harness\": ",
        jsonQuote(plan.name()), ",\n\"jobs\": ", result.jobs,
        ",\n\"points\": ", result.outcomes.size(),
        ",\n\"wall_ms\": ", fixed(result.wallMs, 3),
        ",\n\"point_wall_ms_total\": ", fixed(point_ms, 3),
        ",\n\"compile_cache\": {\"enabled\": ",
        options.runner.cacheEnabled ? "true" : "false",
        ", \"hits\": ", result.cacheStats.hits,
        ", \"misses\": ", result.cacheStats.misses,
        ", \"hit_rate\": ", fixed(result.cacheStats.hitRate(), 4),
        "}");
    // Crash-safety blocks appear only when their flag is on, keeping
    // existing sweep reports byte-identical.
    const RunnerOptions& r = options.runner;
    if (!r.diskCacheDir.empty())
        s += strCat(",\n\"disk_cache\": {\"dir\": ",
                    jsonQuote(r.diskCacheDir),
                    ", \"compiles\": ", result.cacheStats.compiles,
                    ", \"hits\": ", result.cacheStats.diskHits,
                    ", \"stores\": ", result.cacheStats.diskStores,
                    ", \"corrupt\": ", result.cacheStats.diskCorrupt,
                    "}");
    if (!r.journalDir.empty())
        s += strCat(",\n\"journal\": {\"dir\": ",
                    jsonQuote(r.journalDir), ", \"replayed\": ",
                    result.replayedPoints, ", \"executed\": ",
                    result.outcomes.size() - result.replayedPoints,
                    ", \"compiles\": ", result.cacheStats.compiles,
                    "}");
    if (r.isolateWorkers)
        s += ",\n\"isolate_workers\": true";
    if (result.daemon.active)
        s += strCat(",\n\"daemon\": {\"socket\": ",
                    jsonQuote(options.connectSocket),
                    ", \"leases_issued\": ", result.daemon.leasesIssued,
                    ", \"leases_expired\": ", result.daemon.leasesExpired,
                    ", \"leases_reassigned\": ",
                    result.daemon.leasesReassigned,
                    ", \"heartbeats\": ", result.daemon.heartbeats,
                    ", \"worker_lost\": ", result.daemon.workerLost,
                    ", \"results_streamed\": ",
                    result.daemon.resultsStreamed,
                    ", \"replayed\": ", result.daemon.replayed,
                    ", \"executed\": ", result.daemon.executed,
                    ", \"reconnects\": ", result.daemon.reconnects,
                    ", \"compiles\": ", result.daemon.compiles, "}");
    if (failed) {
        s += strCat(",\n\"failed_points\": ", failed,
                    ",\n\"failures\": [");
        bool first = true;
        for (const auto& o : result.outcomes) {
            if (!o.failed)
                continue;
            s += strCat(first ? "" : ", ", "{\"label\": ",
                        jsonQuote(o.point->label), ", \"kind\": ",
                        jsonQuote(simErrorKindName(o.errorKind)),
                        ", \"cycle\": ", o.errorCycle,
                        ", \"retries\": ", o.retries, "}");
            first = false;
        }
        s += "]";
    }
    s += "}\n";
    return s;
}

int
runHarness(const ExperimentPlan& plan, const HarnessOptions& options,
           const std::function<void(const SweepResult&)>& render)
{
    if (options.list) {
        for (const auto& p : plan.points())
            std::printf("%s\n", p.label.c_str());
        return 0;
    }

    const bool filtered = !options.filter.empty();
    // A copy either way: --sanitize/--faults tune every point's
    // simOptions in place, and outcomes point into the executed plan,
    // which must outlive the result below.
    ExperimentPlan to_run =
        filtered ? plan.filtered(options.filter) : plan;
    if (filtered && to_run.empty()) {
        std::fprintf(stderr, "--filter %s matches no sweep point\n",
                     options.filter.c_str());
        return 1;
    }
    if (options.sanitizeEveryCycles > 0 || options.faultIntensity > 0.0)
        for (auto& p : to_run.mutablePoints()) {
            if (options.sanitizeEveryCycles > 0)
                p.simOptions.sanitizeEveryCycles =
                    options.sanitizeEveryCycles;
            if (options.faultIntensity > 0.0)
                p.simOptions.faults = fault::FaultPlan::atIntensity(
                    options.faultIntensity, options.faultSeed);
        }

    SweepResult result;
    if (!options.connectSocket.empty()) {
        if (options.runner.isolateWorkers ||
            !options.runner.journalDir.empty()) {
            std::fprintf(stderr,
                         "--connect is incompatible with "
                         "--isolate-workers and --journal: the daemon "
                         "owns isolation and durability\n");
            return 1;
        }
        ClientOptions copts;
        copts.socketPath = options.connectSocket;
        result = runPlanOverSocket(to_run, options.runner, copts);
    } else {
        result = SweepRunner(options.runner).run(to_run);
    }

    if (filtered) {
        // Single-point/CI mode: a standard summary instead of the
        // harness's full-grid rendering (which needs every point).
        for (const auto& o : result.outcomes) {
            if (o.failed) {
                std::printf("%-48s FAILED (%s at cycle %llu)\n",
                            o.point->label.c_str(),
                            simErrorKindName(o.errorKind).c_str(),
                            static_cast<unsigned long long>(
                                o.errorCycle));
                continue;
            }
            std::printf("%-48s %10llu cycles  ops %llu%s%s\n",
                        o.point->label.c_str(),
                        static_cast<unsigned long long>(
                            o.result.stats.cycles),
                        static_cast<unsigned long long>(
                            o.result.stats.totalOps),
                        o.point->verifyBenchmark.empty()
                            ? ""
                            : "  verify OK",
                        o.compileCached ? "  [compile cached]" : "");
        }
    } else {
        render(result);
    }

    // Fail-safe failures are data (recorded in the bundle/report) but
    // still deserve eyeballs.
    for (const auto& o : result.outcomes)
        if (o.failed)
            std::fprintf(stderr, "point %s failed: %s\n",
                         o.point->label.c_str(), o.error.c_str());

    if (!options.statsJsonPath.empty())
        writeOutput(options.statsJsonPath, formatStatsBundle(result));
    if (!options.sweepReportPath.empty())
        writeOutput(options.sweepReportPath,
                    formatSweepReport(to_run, result, options));
    return 0;
}

int
harnessMain(const ExperimentPlan& plan, int argc, char** argv,
            const std::function<void(const SweepResult&)>& render)
{
    runWorkerIfRequested(argc, argv);
    return runHarness(plan, HarnessOptions::parse(argc, argv), render);
}

void
writeOutput(const std::string& path, const std::string& text)
{
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return;
    }
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    out << text;
}

std::string
ratio(double num, double den)
{
    return fixed(den == 0.0 ? 0.0 : num / den, 2);
}

} // namespace exp
} // namespace procoup
