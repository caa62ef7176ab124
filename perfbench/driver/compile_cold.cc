/**
 * @file
 * compile-cold: compile only, with no cache and no simulation. Every
 * Table 2 (source, mode) pair plus generated programs in Coupled and
 * TPE. opt, sched and ir do all the work and sim none, so a simulator
 * change should not move this workload; the three Ideal points are the
 * slowest points of a pass.
 */

#include "bench.hh"

#include "procoup/config/presets.hh"
#include "procoup/exp/suites.hh"
#include "procoup/gen/generator.hh"
#include "procoup/support/strings.hh"

namespace perfbench {

using namespace procoup;

namespace {

/** Generated programs per pass (each compiled in two modes). Enough
 *  that the spread of compile times across workload seeds stays small
 *  next to the benchmark's bounds. */
constexpr int kPrograms = 600;
constexpr int kSmokePrograms = 8;

struct Job
{
    std::string label;
    std::string source;
    config::MachineConfig machine;
    sched::CompileOptions options;
};

std::vector<Job>
buildJobs(const Options& opts)
{
    std::vector<Job> jobs;
    const exp::ExperimentPlan table2 = exp::table2BaselinePlan();
    for (const exp::SweepPoint& p : table2.points())
        jobs.push_back({p.label, p.source, p.machine, p.options});

    const config::MachineConfig machine = config::baseline();
    const int programs = opts.smoke ? kSmokePrograms : kPrograms;
    for (int i = 0; i < programs; ++i) {
        const std::uint64_t seed =
            generatorFirstSeed(opts.seed) + static_cast<std::uint64_t>(i);
        const gen::GeneratedProgram g = gen::generate(seed);
        for (const auto mode : {core::SimMode::Coupled, core::SimMode::Tpe})
            jobs.push_back({strCat("g", seed, "/", core::simModeName(mode)),
                            g.source, machine, core::optionsFor(mode)});
    }
    return jobs;
}

/** One pass of plain sched::compile calls: the end-to-end measurement. */
void
compilePass(const std::vector<Job>& jobs, Report& report, bool timed)
{
    std::vector<sched::CompileResult> results(jobs.size());
    std::vector<bool> ok(jobs.size(), false);
    std::vector<double> pointMs;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto t0 = Clock::now();
        try {
            results[i] = sched::compile(jobs[i].source, jobs[i].machine,
                                        jobs[i].options);
            ok[i] = true;
        } catch (const std::exception& e) {
            report.fail(jobs[i].label + ": " + e.what());
        }
        pointMs.push_back(msSince(t0));
    }
    const double wall = secondsSince(start);

    ScheduleCounts totals;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ++report.attempted;
        if (!ok[i])
            continue;
        report.checkDigest(jobs[i].label, compileDigest(results[i]),
                           "compile");
        totals.add(results[i]);
    }
    checkScheduleCounts(totals, report);
    if (timed)
        report.passes.push_back(
            {wall, static_cast<double>(jobs.size()) / wall,
             std::move(pointMs)});
}

/** One layer-by-layer pass; @return its wall ms. */
double
layerPass(const std::vector<Job>& jobs, Tracer& tracer, Report& report)
{
    const std::size_t mark = tracer.mark();
    const auto start = Clock::now();
    PipelineTotals totals;
    for (const Job& job : jobs) {
        ++report.attempted;
        try {
            sched::CompileResult result;
            {
                tracer.setTrace(job.label);
                auto root = tracer.span("point");
                result = pipelineCompile(job.source, job.machine,
                                         job.options, tracer, totals);
            }
            report.checkDigest(job.label, compileDigest(result),
                               tracer.enabled ? "traced" : "bare");
        } catch (const std::exception& e) {
            report.fail(job.label + ": " + e.what());
        }
    }
    const double wall = msSince(start);
    checkCompileCounts(totals, report);
    if (tracer.enabled)
        recordPipelineLayers(tracer, mark, totals, report);
    return wall;
}

} // namespace

void
runCompileCold(const Options& opts, Report& report)
{
    // Set-up: generate the programs and lay out the compile jobs.
    auto setup = [&] { return buildJobs(opts); };
    const std::vector<Job> jobs = timedSetup(setup, report);

    const auto start = Clock::now();
    if (!opts.trace) {
        for (int pass = 0;
             pass < minPasses(opts) || secondsSince(start) < opts.seconds;
             ++pass) {
            compilePass(jobs, report, /*timed=*/true);
            repeatSetup(opts, setup, report);
        }
        repeatSetup(opts, setup, report, /*all=*/true);
        return;
    }

    Tracer tracer;
    std::vector<double> bareMs, tracedMs;
    for (int round = 0;
         round < minPasses(opts) || secondsSince(start) < opts.seconds;
         ++round) {
        compilePass(jobs, report, /*timed=*/false);
        tracer.enabled = false;
        bareMs.push_back(layerPass(jobs, tracer, report));
        tracer.enabled = true;
        tracedMs.push_back(layerPass(jobs, tracer, report));
    }
    report.layer("trace.overhead_ms", median(tracedMs) - median(bareMs));
    writeTrace(opts, tracer, report);
}

} // namespace perfbench
