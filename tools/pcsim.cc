/**
 * @file
 * pcsim — command-line driver for the processor-coupling toolchain.
 *
 * Usage:
 *   pcsim [options] program.pcl
 *   pcsim [options] --benchmark Matrix|FFT|LUD|Model
 *
 * pcsim is a harness over a one-point plan: it takes every flag of
 * src/procoup/exp/harness.hh, and these of its own (valued ones also
 * as --flag=X):
 *
 *   --mode seq|sts|ideal|tpe|coupled   simulation mode (default coupled)
 *   --machine FILE                     s-expression machine description
 *   --interconnect full|tri-port|dual-port|single-port|shared-bus
 *   --mem min|mem1|mem2                memory model preset
 *   --dump-asm                         print the compiled assembly
 *   --dump-ir                          print the optimized IR
 *   --dump-schedule                    print Figure-1-style schedules
 *   --diag                             compiler diagnostics summary
 *   --trace                            cycle-by-cycle event trace
 *   --max-trace N                      stop tracing after N events
 *   --trace-stalls                     include per-FU stall-cause events
 *   --trace-out FILE                   write Chrome trace-event JSON
 *   --verify                           (with --benchmark) check results
 *   --sym NAME                         print a data symbol after the run
 *   --cycle-cap N                      abort the run (SimError) after
 *                                      N cycles
 *   --deadline-ms T                    abort the run after T ms of
 *                                      simulation wall-clock
 *
 * Its --stats-json FILE ("-" = stdout) is the run's own procoup-stats
 * document, not a bundle; a run that fails under --fail-safe writes a
 * procoup-stats/2 error document there and exits 0.
 *
 * Exit status: 0 on success, 1 on compile/simulation errors or a
 * failed verification.
 */

#include <cfloat>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/parse.hh"
#include "procoup/config/presets.hh"
#include "procoup/core/node.hh"
#include "procoup/exp/cache.hh"
#include "procoup/exp/harness.hh"
#include "procoup/exp/serialize.hh"
#include "procoup/exp/worker.hh"
#include "procoup/ir/frontend.hh"
#include "procoup/isa/asmtext.hh"
#include "procoup/opt/passes.hh"
#include "procoup/sched/report.hh"
#include "procoup/sim/simulator.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace {

using namespace procoup;

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options] program.pcl\n"
                 "       %s [options] --benchmark NAME\n"
                 "see the file header of tools/pcsim.cc for options\n",
                 argv0, argv0);
    std::exit(1);
}

core::SimMode
parseMode(const std::string& s)
{
    if (s == "seq")
        return core::SimMode::Seq;
    if (s == "sts")
        return core::SimMode::Sts;
    if (s == "ideal")
        return core::SimMode::Ideal;
    if (s == "tpe")
        return core::SimMode::Tpe;
    if (s == "coupled")
        return core::SimMode::Coupled;
    throw CompileError(strCat("unknown mode '", s, "'"));
}

std::string
readFile(const std::string& path)
{
    std::string text;
    if (!exp::readWholeFile(path, &text))
        throw CompileError(strCat("cannot open ", path));
    return text;
}

struct Options
{
    core::SimMode mode = core::SimMode::Coupled;
    config::MachineConfig machine = config::baseline();
    std::string source_file;
    std::string benchmark;
    bool dump_asm = false;
    bool dump_ir = false;
    bool dump_schedule = false;
    bool diag = false;
    bool do_trace = false;
    long max_trace = 2000;
    bool trace_stalls = false;
    std::string trace_out;
    bool verify = false;
    std::vector<std::string> symbols;
    std::uint64_t cycle_cap = 0;
    double deadline_ms = 0.0;

    /** Take the current argument if it is one of pcsim's own flags or
     *  its input file. */
    bool take(exp::Args& a);
};

bool
Options::take(exp::Args& a)
{
    std::string s;
    if (a.value("--mode", &s)) {
        mode = parseMode(s);
    } else if (a.value("--machine", &s)) {
        machine = config::parseMachine(readFile(s));
    } else if (a.value("--interconnect", &s)) {
        machine = config::withInterconnect(
            machine,
            config::parseMachine(
                strCat("(machine (cluster (iu) (mem)) (cluster "
                       "(br)) (interconnect ", s, "))"))
                .interconnect);
    } else if (a.value("--mem", &s)) {
        if (s == "min")
            machine = config::withMemMin(machine);
        else if (s == "mem1")
            machine = config::withMem1(machine);
        else if (s == "mem2")
            machine = config::withMem2(machine);
        else
            a.bad();
    } else if (a.value("--sym", &s)) {
        symbols.push_back(s);
    } else if (!a.arg().starts_with("-")) {
        source_file = a.arg();
    } else {
        return a.value("--benchmark", &benchmark) ||
               a.set("--dump-asm", &dump_asm) ||
               a.set("--dump-ir", &dump_ir) ||
               a.set("--dump-schedule", &dump_schedule) ||
               a.set("--diag", &diag) ||
               a.set("--trace", &do_trace) ||
               a.number("--max-trace", 0L, LONG_MAX, &max_trace) ||
               a.set("--trace-stalls", &trace_stalls) ||
               a.value("--trace-out", &trace_out) ||
               a.set("--verify", &verify) ||
               a.number("--cycle-cap", std::uint64_t{1}, UINT64_MAX,
                        &cycle_cap) ||
               a.number("--deadline-ms", DBL_TRUE_MIN, DBL_MAX,
                        &deadline_ms);
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
try {
    exp::runWorkerIfRequested(argc, argv);
    Options o;
    exp::HarnessOptions h = exp::HarnessOptions::parse(
        argc, argv, [&](exp::Args& a) { return o.take(a); }, usage);
    if (o.source_file.empty() == o.benchmark.empty())
        usage(argv[0]);  // exactly one input
    // One run, so --stats-json is pcsim's own document, not a bundle.
    const std::string stats_json = std::exchange(h.statsJsonPath, {});

    const std::string source =
        !o.benchmark.empty()
            ? benchmarks::byName(o.benchmark).forMode(o.mode)
            : readFile(o.source_file);

    if (o.dump_ir) {
        ir::FrontendOptions fopts;
        fopts.forkClones =
            static_cast<int>(o.machine.arithClusters().size());
        ir::Module mod = ir::buildModule(source, fopts);
        opt::optimize(mod);
        std::printf("%s\n", mod.toString().c_str());
    }

    exp::CompileCache cache;
    if (!h.runner.diskCacheDir.empty())
        cache.setDiskDir(h.runner.diskCacheDir);
    // Compile once for the dump output; the runner's own compile of the
    // same point is then a cache hit, never a second compilation.
    const auto compiled =
        cache.compile(source, o.machine, core::optionsFor(o.mode));
    if (o.dump_asm)
        std::printf("%s\n", isa::printAssembly(compiled->program).c_str());
    if (o.dump_schedule)
        for (const auto& t : compiled->program.threads)
            std::printf("%s\n",
                        sched::formatSchedule(t, o.machine).c_str());
    if (o.diag)
        std::printf("%s\n", sched::formatDiagnostics(*compiled).c_str());
    h.runner.cache = &cache;

    exp::ExperimentPlan plan("pcsim");
    exp::SweepPoint& point = plan.addSource(
        !o.benchmark.empty()
            ? exp::ExperimentPlan::benchmarkLabel(
                  benchmarks::byName(o.benchmark), o.mode, o.machine)
            : strCat(o.source_file, "/", core::simModeName(o.mode), "@",
                     o.machine.name),
        o.machine, source, o.mode);
    point.simOptions.limits.maxCycles = o.cycle_cap;
    point.simOptions.limits.wallClockDeadlineMs = o.deadline_ms;

    long traced = 0;
    std::vector<sim::TraceEvent> collected;
    if (o.do_trace || !o.trace_out.empty()) {
        point.tracer = [&](const sim::TraceEvent& e) {
            if (o.do_trace && traced++ < o.max_trace)
                std::printf("%s\n", e.toString().c_str());
            if (!o.trace_out.empty())
                collected.push_back(e);
        };
        point.traceStalls = o.trace_stalls;
    }

    return exp::runHarness(plan, h, [&](const exp::SweepResult& sweep) {
        const exp::RunOutcome& outcome = sweep.outcomes.front();
        if (outcome.failed) {
            // Fail-safe: the failure is a structured record, not an
            // abort; runHarness reports its message on stderr.
            if (!stats_json.empty())
                exp::writeOutput(
                    stats_json,
                    strCat("{\n  \"schema\": \"procoup-stats/2\",\n"
                           "  \"error\": {\"kind\": ",
                           jsonQuote(simErrorKindName(outcome.errorKind)),
                           ", \"cycle\": ", outcome.errorCycle,
                           ", \"message\": ", jsonQuote(outcome.error),
                           "}\n}\n"));
            std::printf("simulation FAILED (%s at cycle %llu)\n",
                        simErrorKindName(outcome.errorKind).c_str(),
                        static_cast<unsigned long long>(
                            outcome.errorCycle));
            return;
        }

        const core::RunResult& rr = outcome.result;
        if (o.do_trace && traced > o.max_trace)
            std::printf("... %ld further events suppressed\n",
                        traced - o.max_trace);
        if (!o.trace_out.empty())
            exp::writeOutput(o.trace_out, sim::chromeTraceJson(collected));
        if (!stats_json.empty())
            exp::writeOutput(stats_json,
                             sched::formatStatsJson(rr.stats, o.machine));

        std::printf("%s", rr.stats.summary().c_str());
        std::printf("peak registers/cluster: %u\n",
                    rr.compiled.peakRegistersPerCluster());

        for (const auto& name : o.symbols) {
            const auto& sym = rr.compiled.program.symbol(name);
            std::printf("%s:", name.c_str());
            for (std::uint32_t k = 0; k < sym.size && k < 16; ++k)
                std::printf(" %s",
                            rr.memory.at(sym.base + k).toString().c_str());
            std::printf(sym.size > 16 ? " ...\n" : "\n");
        }

        if (o.verify && !o.benchmark.empty()) {
            std::string why;
            if (!benchmarks::verify(o.benchmark, rr, &why)) {
                std::fprintf(stderr, "VERIFY FAILED: %s\n", why.c_str());
                std::exit(1);
            }
            std::printf("verify: OK\n");
        }
    });
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
