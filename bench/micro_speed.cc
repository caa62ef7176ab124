/**
 * @file
 * Engineering microbenchmarks (google-benchmark): compiler and
 * simulator throughput, plus ablations of simulator features (bank
 * conflict modeling, interconnect schemes) and the experiment-plan
 * sweep engine itself (exp::SweepRunner at several worker counts,
 * exp::CompileCache hit and miss paths), and the per-point host work
 * around it (keys, fingerprints, a daemon's plan decode, generated
 * programs, LUD's frontend).
 * These are not paper figures; they characterize the reproduction
 * itself.
 */

#include <benchmark/benchmark.h>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/core/node.hh"
#include "procoup/exp/cache.hh"
#include "procoup/exp/journal.hh"
#include "procoup/exp/runner.hh"
#include "procoup/exp/service.hh"
#include "procoup/exp/suites.hh"
#include "procoup/gen/soak.hh"
#include "procoup/ir/frontend.hh"
#include "procoup/lang/parser.hh"
#include "procoup/sim/simulator.hh"
#include "procoup/support/strings.hh"

namespace {

using namespace procoup;

/** Compiles shared by every simulation benchmark in this binary. */
exp::CompileCache&
compileCache()
{
    static exp::CompileCache cache;
    return cache;
}

void
BM_CompileMatrixCoupled(benchmark::State& state)
{
    const auto machine = config::baseline();
    const auto bench = benchmarks::matrix();
    core::CoupledNode node(machine);
    for (auto _ : state) {
        auto compiled =
            node.compile(bench.threaded, core::SimMode::Coupled);
        benchmark::DoNotOptimize(compiled.program.threads.size());
    }
}
BENCHMARK(BM_CompileMatrixCoupled)->Unit(benchmark::kMillisecond);

void
BM_CompileFftIdeal(benchmark::State& state)
{
    // Fully unrolled: the heaviest single-block schedule.
    const auto machine = config::baseline();
    const auto bench = benchmarks::fft();
    core::CoupledNode node(machine);
    for (auto _ : state) {
        auto compiled = node.compile(bench.ideal, core::SimMode::Ideal);
        benchmark::DoNotOptimize(compiled.program.threads.size());
    }
}
BENCHMARK(BM_CompileFftIdeal)->Unit(benchmark::kMillisecond);

/** The cache's hit path: what every duplicate sweep point pays. */
void
BM_CompileCacheHitMatrix(benchmark::State& state)
{
    const auto machine = config::baseline();
    const auto bench = benchmarks::matrix();
    const auto opts = core::optionsFor(core::SimMode::Coupled);
    exp::CompileCache cache;
    cache.compile(bench.threaded, machine, opts);  // warm
    for (auto _ : state) {
        auto compiled = cache.compile(bench.threaded, machine, opts);
        benchmark::DoNotOptimize(compiled->program.threads.size());
    }
    state.counters["hits"] =
        static_cast<double>(cache.stats().hits);
}
BENCHMARK(BM_CompileCacheHitMatrix)->Unit(benchmark::kMicrosecond);

/** The first point of a one-program soak plan (seed 1): a generated
 *  program with its machine and options, as the daemon receives it. */
const exp::SweepPoint&
soakPoint()
{
    static const gen::SoakPlan sp = [] {
        gen::SoakOptions opts;
        opts.programs = 1;
        return gen::buildSoakPlan(opts);
    }();
    return sp.plan.points().front();
}

/** The journal identity of one point, computed several times for each
 *  point a daemon serves. */
void
BM_PointFingerprint(benchmark::State& state)
{
    const exp::SweepPoint& point = soakPoint();
    for (auto _ : state)
        benchmark::DoNotOptimize(exp::pointFingerprint(point));
    state.counters["source_bytes"] =
        static_cast<double>(point.source.size());
}
BENCHMARK(BM_PointFingerprint)->Unit(benchmark::kMicrosecond);

/** The compile cache's key, rebuilt on every lookup. */
void
BM_CompileCacheKey(benchmark::State& state)
{
    const exp::SweepPoint& point = soakPoint();
    for (auto _ : state)
        benchmark::DoNotOptimize(exp::CompileCache::key(
            point.source, point.machine, point.options));
}
BENCHMARK(BM_CompileCacheKey)->Unit(benchmark::kMicrosecond);

/** A daemon decoding perfbench's seed-1 service-soak submission: 320
 *  generated programs, 3840 points, each with its machine checked and
 *  its label checked against every other. */
void
BM_DecodePlanSubmitSoak(benchmark::State& state)
{
    static const std::string body = [] {
        gen::SoakOptions opts;
        opts.firstSeed = 100001;  // perfbench --seed 1
        opts.programs = 320;
        return exp::encodePlanSubmit(gen::buildSoakPlan(opts).plan,
                                     exp::RunnerOptions{});
    }();
    std::size_t points = 0;
    for (auto _ : state) {
        exp::PlanEnvelope env;
        benchmark::DoNotOptimize(exp::decodePlanSubmit(body, &env));
        points = env.plan.size();
    }
    state.counters["points"] = static_cast<double>(points);
}
BENCHMARK(BM_DecodePlanSubmitSoak)->Unit(benchmark::kMillisecond);

/** One soak point on a warm compile cache, as a daemon worker runs
 *  it: cache hit, bind, cycle loop and the outcome. */
void
BM_ExecuteSweepPointWarm(benchmark::State& state)
{
    const exp::SweepPoint& point = soakPoint();
    exp::CompileCache cache;
    cache.compile(point.source, point.machine, point.options);  // warm
    const exp::RunnerOptions opts;
    for (auto _ : state) {
        const exp::RunOutcome out =
            exp::executeSweepPoint(point, cache, opts);
        benchmark::DoNotOptimize(out.result.stats.cycles);
    }
}
BENCHMARK(BM_ExecuteSweepPointWarm)->Unit(benchmark::kMicrosecond);

/** Binding a cached soak program: construct and destroy a Simulator
 *  (validation, per-point state, the entry thread). */
void
BM_SimulatorBind(benchmark::State& state)
{
    const exp::SweepPoint& point = soakPoint();
    const auto compiled = compileCache().compile(
        point.source, point.machine, point.options);
    for (auto _ : state) {
        sim::Simulator s(point.machine, compiled->program,
                         point.simOptions);
        benchmark::DoNotOptimize(s.activeThreads());
    }
}
BENCHMARK(BM_SimulatorBind)->Unit(benchmark::kMicrosecond);

/** One generated program, over 64 seeds in turn. */
void
BM_GenerateProgram(benchmark::State& state)
{
    std::uint64_t n = 0;
    for (auto _ : state) {
        auto program = gen::generate(1 + n++ % 64);
        benchmark::DoNotOptimize(program.source.data());
    }
}
BENCHMARK(BM_GenerateProgram)->Unit(benchmark::kMicrosecond);

/** LUD's frontend (parsed once): its 64x64 :init-each initializer is
 *  most of it. */
void
BM_FrontendLud(benchmark::State& state)
{
    const auto machine = config::baseline();
    const auto forms = lang::parse(benchmarks::lud().threaded);
    ir::FrontendOptions opts;
    opts.forkClones = static_cast<int>(machine.arithClusters().size());
    for (auto _ : state) {
        auto mod = ir::buildModule(forms, opts);
        benchmark::DoNotOptimize(mod.funcs.size());
    }
}
BENCHMARK(BM_FrontendLud)->Unit(benchmark::kMillisecond);

void
simulateBenchmark(benchmark::State& state,
                  const core::BenchmarkSource& bench, core::SimMode mode,
                  const config::MachineConfig& machine)
{
    const auto compiled = compileCache().compile(
        bench.forMode(mode), machine, core::optionsFor(mode));
    std::uint64_t cycles = 0;
    std::uint64_t total = 0;  // across iterations, for the rate counter
    for (auto _ : state) {
        sim::Simulator s(machine, compiled->program);
        cycles = s.run().cycles;
        total += cycles;
        benchmark::DoNotOptimize(cycles);
    }
    state.counters["sim_cycles"] =
        benchmark::Counter(static_cast<double>(cycles));
    state.counters["cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(total), benchmark::Counter::kIsRate);
}

void
BM_SimulateMatrixCoupled(benchmark::State& state)
{
    simulateBenchmark(state, benchmarks::matrix(),
                      core::SimMode::Coupled, config::baseline());
}
BENCHMARK(BM_SimulateMatrixCoupled)->Unit(benchmark::kMillisecond);

void
BM_SimulateLudCoupled(benchmark::State& state)
{
    simulateBenchmark(state, benchmarks::lud(), core::SimMode::Coupled,
                      config::baseline());
}
BENCHMARK(BM_SimulateLudCoupled)->Unit(benchmark::kMillisecond);

/** Memory-latency-bound: a 100-cycle hit latency leaves the machine
 *  quiescent for long stretches between arrivals, so most simulated
 *  cycles are covered by the quiescent fast-forward path. */
void
BM_SimulateModelMemBound(benchmark::State& state)
{
    auto machine = config::baseline();
    machine.memory.hitLatency = 100;
    simulateBenchmark(state, benchmarks::model(),
                      core::SimMode::Coupled, machine);
}
BENCHMARK(BM_SimulateModelMemBound)->Unit(benchmark::kMillisecond);

void
BM_SimulateModelMem2(benchmark::State& state)
{
    simulateBenchmark(state, benchmarks::model(),
                      core::SimMode::Coupled,
                      config::withMem2(config::baseline()));
}
BENCHMARK(BM_SimulateModelMem2)->Unit(benchmark::kMillisecond);

/** Ablation: bank-conflict modeling (off in the paper). */
void
BM_AblationBankConflicts(benchmark::State& state)
{
    auto machine = config::baseline();
    machine.memory.modelBankConflicts = state.range(0) != 0;
    simulateBenchmark(state, benchmarks::matrix(),
                      core::SimMode::Coupled, machine);
}
BENCHMARK(BM_AblationBankConflicts)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/** Ablation: interconnect scheme cost in simulator time. */
void
BM_AblationInterconnect(benchmark::State& state)
{
    const auto scheme =
        static_cast<config::InterconnectScheme>(state.range(0));
    simulateBenchmark(
        state, benchmarks::fft(), core::SimMode::Coupled,
        config::withInterconnect(config::baseline(), scheme));
}
BENCHMARK(BM_AblationInterconnect)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

/** The whole Table-2 grid through the sweep engine, by job count. */
void
BM_SweepTable2(benchmark::State& state)
{
    const exp::ExperimentPlan plan = exp::table2BaselinePlan();
    for (auto _ : state) {
        exp::RunnerOptions opts;
        opts.jobs = static_cast<int>(state.range(0));
        opts.cache = &compileCache();  // steady-state: compiles cached
        exp::SweepRunner runner(opts);
        const auto res = runner.run(plan);
        benchmark::DoNotOptimize(res.outcomes.size());
    }
    state.counters["points"] = static_cast<double>(plan.size());
}
BENCHMARK(BM_SweepTable2)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // The report's own "library_build_type" is Google Benchmark's
    // build, not the build of the code it measures.
    benchmark::AddCustomContext("procoup_build_type", PROCOUP_BUILD_TYPE);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
