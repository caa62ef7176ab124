/**
 * @file
 * sim-threaded: every Table 2 point plus three that reach other
 * simulator paths, run through exp::SweepRunner (jobs = 1) on a compile
 * cache warmed at set-up. The cycle loop is nearly all of a pass and
 * the compile layers do no work, so a compiler change should not move
 * this workload.
 */

#include "bench.hh"

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/runner.hh"
#include "procoup/exp/suites.hh"

namespace perfbench {

using namespace procoup;

namespace {

const char* const kFaultedLabel = "LUD/Coupled@baseline/fault";
const char* const kFaultedTwin = "LUD/Coupled@baseline";

exp::ExperimentPlan
buildPlan()
{
    exp::ExperimentPlan plan = exp::table2BaselinePlan();

    // A 100-cycle hit latency leaves the machine quiescent most of the
    // time, so the run spends its cycles in the fast-forward path.
    config::MachineConfig slowMem = config::baseline();
    slowMem.name = "hit100";
    slowMem.memory.hitLatency = 100;
    plan.addBenchmark(slowMem, benchmarks::model(), core::SimMode::Coupled);

    plan.addBenchmark(config::withMem2(config::baseline()),
                      benchmarks::model(), core::SimMode::Coupled);

    exp::SweepPoint& faulted =
        plan.addBenchmark(config::baseline(), benchmarks::lud(),
                          core::SimMode::Coupled, kFaultedLabel);
    faulted.simOptions.faults = fault::FaultPlan::atIntensity(0.5, 7);
    return plan;
}

/** One SweepRunner pass: the end-to-end measurement. */
void
runnerPass(const exp::ExperimentPlan& plan, exp::SweepRunner& runner,
           Report& report, bool timed)
{
    const auto start = Clock::now();
    const exp::SweepResult res = runner.run(plan);
    const double wall = secondsSince(start);

    PipelineTotals totals;
    double pointSum = 0.0;
    std::vector<double> pointMs;
    for (const exp::RunOutcome& o : res.outcomes) {
        ++report.attempted;
        pointSum += o.wallMs;
        pointMs.push_back(o.wallMs);
        if (o.failed || !o.error.empty()) {
            report.fail(o.point->label + ": " + o.error);
            continue;
        }
        report.checkDigest(o.point->label,
                           runDigest(o.result.stats, o.result.memory),
                           "runner");
        addRunStats(o.result.stats, totals);
    }
    if (res.cacheStats.compiles != 0)
        report.fail("sim-threaded pass compiled; the cache was not warm");
    checkSimCounts(totals, report);
    report.layer("exp.runner_overhead_ms", res.wallMs - pointSum);
    if (timed)
        report.passes.push_back(
            {wall, static_cast<double>(plan.size()) / wall,
             std::move(pointMs)});
}

} // namespace

void
runSimThreaded(const Options& opts, Report& report)
{
    const exp::ExperimentPlan plan = buildPlan();

    // Set-up: compile every point into one cache.
    auto setup = [&] {
        auto cache = std::make_unique<exp::CompileCache>();
        for (const exp::SweepPoint& p : plan.points())
            cache->compile(p.source, p.machine, p.options);
        return cache;
    };
    const std::unique_ptr<exp::CompileCache> warm = timedSetup(setup, report);
    exp::CompileCache& cache = *warm;

    exp::RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = &cache;
    ro.failSafe = true;
    ro.exitOnVerifyFailure = false;
    exp::SweepRunner runner(ro);

    const auto start = Clock::now();
    if (!opts.trace) {
        for (int pass = 0;
             pass < minPasses(opts) || secondsSince(start) < opts.seconds;
             ++pass) {
            runnerPass(plan, runner, report, /*timed=*/true);
            repeatSetup(opts, setup, report);
        }
        repeatSetup(opts, setup, report, /*all=*/true);
        return;
    }

    // Traced run: rounds of runner, bare and traced passes. The bare and
    // traced passes make the same calls; their difference is the
    // tracing overhead.
    const FaultTwins twins = {{kFaultedLabel, kFaultedTwin}};
    Tracer tracer;
    std::vector<double> bareMs, tracedMs;
    for (int round = 0;
         round < minPasses(opts) || secondsSince(start) < opts.seconds;
         ++round) {
        runnerPass(plan, runner, report, /*timed=*/false);
        tracer.enabled = false;
        bareMs.push_back(pipelinePass(plan, cache, tracer, twins, report));
        tracer.enabled = true;
        tracedMs.push_back(pipelinePass(plan, cache, tracer, twins, report));
    }
    report.layer("trace.overhead_ms", median(tracedMs) - median(bareMs));
    writeTrace(opts, tracer, report);
}

} // namespace perfbench
