#include "procoup/gen/soak.hh"

#include <cstddef>

#include "procoup/config/presets.hh"
#include "procoup/exp/runner.hh"
#include "procoup/fault/fault.hh"
#include "procoup/gen/reduce.hh"
#include "procoup/lang/parser.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace gen {

namespace {

/** The machine variants every program runs on. The second differs
 *  only in a runtime knob (interconnect), which stresses different
 *  timings without another compile. */
std::vector<config::MachineConfig>
soakMachines()
{
    config::MachineConfig base = config::baseline();
    base.name = "base";
    config::MachineConfig bus = config::withInterconnect(
        config::baseline(), config::InterconnectScheme::SharedBus);
    bus.name = "bus";
    return {base, bus};
}

/** Modes every arbitrary source supports (Ideal is reserved for
 *  hand-unrolled registry programs). */
const core::SimMode kModes[] = {
    core::SimMode::Seq,
    core::SimMode::Sts,
    core::SimMode::Tpe,
    core::SimMode::Coupled,
};

constexpr std::size_t kModeCount = sizeof kModes / sizeof kModes[0];

struct PointShape
{
    std::size_t machineIdx;
    core::SimMode mode;
    bool faulted;
};

/** The fixed per-program point layout under @p opts. Element 0 is
 *  always the reference: clean SEQ on the baseline machine. Faulted
 *  twins run on the baseline machine only. */
std::vector<PointShape>
pointShapes(const SoakOptions& opts, std::size_t machines)
{
    std::vector<PointShape> out;
    for (std::size_t m = 0; m < machines; ++m)
        for (const auto mode : kModes)
            out.push_back({m, mode, false});
    if (opts.withFaults)
        for (const auto mode : kModes)
            out.push_back({0, mode, true});
    return out;
}

void
appendProgram(exp::ExperimentPlan& plan, SoakUnit& u,
              const std::vector<config::MachineConfig>& machines,
              const SoakOptions& opts)
{
    u.firstPoint = plan.size();
    for (const auto& s : pointShapes(opts, machines.size())) {
        exp::SweepPoint& pt = plan.addSource(
            strCat("s", u.seed, "/", core::simModeName(s.mode), "@",
                   machines[s.machineIdx].name,
                   s.faulted ? "/fault" : "/clean"),
            machines[s.machineIdx], u.source, s.mode);
        pt.simOptions.limits.maxCycles = opts.maxCycles;
        if (s.faulted)
            pt.simOptions.faults = fault::FaultPlan::atIntensity(
                opts.faultIntensity, opts.faultSeed + u.seed);
        ++u.pointCount;
    }
}

const isa::Symbol*
findSymbol(const core::RunResult& r, const std::string& name)
{
    const auto it = r.compiled.program.symbols.find(name);
    return it == r.compiled.program.symbols.end() ? nullptr
                                                  : &it->second;
}

/** Bitwise comparison of every word of @p symbols between two runs.
 *  Layouts may differ (thread clones add join cells), so each side
 *  resolves its own symbol table. Returns "" or a diagnostic. */
std::string
compareSymbols(const core::RunResult& ref, const core::RunResult& got,
               const std::vector<std::string>& symbols)
{
    for (const auto& name : symbols) {
        const isa::Symbol* a = findSymbol(ref, name);
        const isa::Symbol* b = findSymbol(got, name);
        if ((a == nullptr) != (b == nullptr))
            return strCat("symbol ", name,
                          " present in only one compilation");
        if (a == nullptr)
            continue;
        if (a->size != b->size)
            return strCat("symbol ", name, " size ", a->size, " vs ",
                          b->size);
        for (std::uint32_t k = 0; k < a->size; ++k) {
            const isa::Value& va = ref.memory[a->base + k];
            const isa::Value& vb = got.memory[b->base + k];
            if (!(va == vb))
                return strCat(name, "[", k, "]: ", ref.value(name, k),
                              " vs ", got.value(name, k));
        }
    }
    return "";
}

/** Check one program's outcomes; append any mismatch (unreduced). */
void
analyzeProgram(const SoakUnit& u,
               const std::vector<PointShape>& shapes,
               const exp::SweepResult& sweep,
               const CrossCheck& crossCheck,
               std::vector<SoakMismatch>& out)
{
    auto fail = [&](const exp::RunOutcome& o, const char* kind,
                    std::string detail) {
        out.push_back({u.seed, o.point->label, kind,
                       std::move(detail), u.source, ""});
    };

    // 1. No simulation may fail (deadlock, budget, sanitizer).
    for (std::size_t i = 0; i < u.pointCount; ++i) {
        const exp::RunOutcome& o = sweep.outcomes[u.firstPoint + i];
        if (o.failed || !o.error.empty()) {
            fail(o, "sim-error", o.error);
            return;  // downstream comparisons would be noise
        }
    }

    const exp::RunOutcome& ref = sweep.outcomes[u.firstPoint];
    for (std::size_t i = 0; i < u.pointCount; ++i) {
        const exp::RunOutcome& o = sweep.outcomes[u.firstPoint + i];
        const PointShape& s = shapes[i];

        // 2. Every clean mode matches clean SEQ bit for bit.
        // 3. Every faulted run matches its clean twin: the faulted
        //    block mirrors the machine-0 clean block in mode order,
        //    so twin index = position within the faulted block.
        const std::size_t faultedBase = shapes.size() - kModeCount;
        const exp::RunOutcome& against =
            s.faulted
                ? sweep.outcomes[u.firstPoint + (i - faultedBase)]
                : ref;
        const std::string diff =
            compareSymbols(against.result, o.result, u.symbols);
        if (!diff.empty()) {
            fail(o, s.faulted ? "fault-mismatch" : "mode-mismatch",
                 diff);
            return;
        }

        // 4. External oracle (slow reference simulator in tier-1).
        //    It replays the executed program, which an outcome of
        //    this process shares with the compile cache.
        if (crossCheck) {
            core::RunResult executed = o.result;
            if (o.compiled)
                executed.compiled = *o.compiled;
            const std::string msg = crossCheck(*o.point, executed);
            if (!msg.empty()) {
                fail(o, "cross-check", msg);
                return;
            }
        }
    }
}

} // namespace

std::vector<std::string>
discoverSymbols(const std::string& source)
{
    std::vector<std::string> out;
    for (const auto& form : lang::parse(source))
        if ((form.isCall("defvar") || form.isCall("defarray")) &&
            form.size() >= 2 && form.at(1).isSymbol())
            out.push_back(form.at(1).symbol());
    return out;
}

std::string
SoakReport::summary() const
{
    return strCat(programs, " program(s), ", points, " point(s), ",
                  fixed(wallMs, 1), " ms, ", mismatches.size(),
                  " mismatch(es)");
}

SoakPlan
buildSoakPlan(const SoakOptions& opts)
{
    const std::vector<config::MachineConfig> machines = soakMachines();
    SoakPlan sp;
    sp.opts = opts;
    sp.units.reserve(static_cast<std::size_t>(opts.programs));
    for (int i = 0; i < opts.programs; ++i) {
        const std::uint64_t seed =
            opts.firstSeed + static_cast<std::uint64_t>(i);
        GeneratedProgram g = generate(seed, opts.gen);
        SoakUnit u;
        u.seed = seed;
        u.source = std::move(g.source);
        u.symbols = std::move(g.checkedSymbols);
        appendProgram(sp.plan, u, machines, opts);
        sp.units.push_back(std::move(u));
    }
    return sp;
}

std::vector<SoakMismatch>
analyzeSoak(const SoakPlan& sp, const exp::SweepResult& sweep,
            const CrossCheck& crossCheck)
{
    const std::vector<PointShape> shapes =
        pointShapes(sp.opts, soakMachines().size());
    std::vector<SoakMismatch> out;
    for (const auto& u : sp.units)
        analyzeProgram(u, shapes, sweep, crossCheck, out);
    return out;
}

std::string
checkProgram(const std::string& source, const SoakOptions& opts,
             const CrossCheck& crossCheck)
{
    const std::vector<config::MachineConfig> machines = soakMachines();
    exp::ExperimentPlan plan("checkProgram");
    SoakUnit u;
    u.source = source;
    u.symbols = discoverSymbols(source);
    appendProgram(plan, u, machines, opts);

    exp::RunnerOptions ro;
    ro.jobs = opts.jobs;
    ro.failSafe = true;
    ro.exitOnVerifyFailure = false;
    exp::SweepRunner runner(ro);
    const exp::SweepResult sweep = runner.run(plan);

    std::vector<SoakMismatch> mm;
    analyzeProgram(u, pointShapes(opts, machines.size()), sweep,
                   crossCheck, mm);
    if (mm.empty())
        return "";
    return strCat(mm[0].kind, " at ", mm[0].label, ": ", mm[0].detail);
}

/** Minimize each mismatch with "still fails checkProgram" as the
 *  predicate; shared by runSoak and the bench harness. */
void
reduceMismatches(std::vector<SoakMismatch>& mismatches,
                 const SoakOptions& opts, const CrossCheck& crossCheck)
{
    SoakOptions inner = opts;
    inner.reduceFailures = false;  // no recursive reduction
    ReduceOptions rd;
    rd.maxProbes = opts.reduceProbes;
    for (auto& m : mismatches) {
        const auto stillFails = [&](const std::string& cand) {
            try {
                return !checkProgram(cand, inner, crossCheck).empty();
            } catch (const CompileError&) {
                return false;
            }
        };
        m.reduced = reduce(m.source, stillFails, rd).source;
    }
}

SoakReport
runSoak(const SoakOptions& opts, const CrossCheck& crossCheck)
{
    SoakPlan sp = buildSoakPlan(opts);

    exp::RunnerOptions ro;
    ro.jobs = opts.jobs;
    ro.failSafe = true;
    ro.exitOnVerifyFailure = false;
    exp::SweepRunner runner(ro);
    const exp::SweepResult sweep = runner.run(sp.plan);

    SoakReport report;
    report.programs = opts.programs;
    report.points = static_cast<int>(sp.plan.size());
    report.wallMs = sweep.wallMs;
    report.mismatches = analyzeSoak(sp, sweep, crossCheck);
    if (opts.reduceFailures && !report.mismatches.empty())
        reduceMismatches(report.mismatches, opts, crossCheck);
    return report;
}

} // namespace gen
} // namespace procoup
