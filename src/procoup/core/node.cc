#include "procoup/core/node.hh"

#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace core {

std::string
simModeName(SimMode m)
{
    switch (m) {
      case SimMode::Seq:     return "SEQ";
      case SimMode::Sts:     return "STS";
      case SimMode::Ideal:   return "Ideal";
      case SimMode::Tpe:     return "TPE";
      case SimMode::Coupled: return "Coupled";
    }
    PROCOUP_PANIC("bad SimMode");
}

const std::vector<SimMode>&
allSimModes()
{
    static const std::vector<SimMode> modes = {
        SimMode::Seq, SimMode::Sts, SimMode::Tpe, SimMode::Coupled,
        SimMode::Ideal};
    return modes;
}

sched::CompileOptions
optionsFor(SimMode m)
{
    sched::CompileOptions opts;
    switch (m) {
      case SimMode::Seq:
      case SimMode::Tpe:
        opts.mode = sched::ScheduleMode::Single;
        break;
      case SimMode::Sts:
      case SimMode::Ideal:
      case SimMode::Coupled:
        opts.mode = sched::ScheduleMode::Unrestricted;
        break;
    }
    return opts;
}

const std::string&
BenchmarkSource::forMode(SimMode m) const
{
    switch (m) {
      case SimMode::Seq:
      case SimMode::Sts:
        return sequential;
      case SimMode::Ideal:
        if (ideal.empty())
            throw CompileError(
                strCat("benchmark ", name, " has no Ideal version ",
                       "(data-dependent control structure)"));
        return ideal;
      case SimMode::Tpe:
      case SimMode::Coupled:
        return threaded;
    }
    PROCOUP_PANIC("bad SimMode");
}

namespace {

/** Word @p offset of @p symbol in @p r's memory. A read past the
 *  symbol's end is a CompileError, as an unknown symbol is: a program
 *  verified as a benchmark may declare a shorter array than it has. */
const isa::Value&
symbolWord(const RunResult& r, const std::string& symbol,
           std::uint32_t offset)
{
    const auto& sym = r.compiled.program.symbol(symbol);
    if (offset >= sym.size)
        throw CompileError(strCat("offset ", offset,
                                  " out of range for symbol ", symbol,
                                  " of size ", sym.size));
    return r.memory.at(sym.base + offset);
}

} // namespace

double
RunResult::value(const std::string& symbol, std::uint32_t offset) const
{
    return symbolWord(*this, symbol, offset).asFloat();
}

std::int64_t
RunResult::intValue(const std::string& symbol,
                    std::uint32_t offset) const
{
    return symbolWord(*this, symbol, offset).asInt();
}

CoupledNode::CoupledNode(config::MachineConfig machine)
    : _machine(std::move(machine))
{}

sched::CompileResult
CoupledNode::compile(const std::string& source, SimMode mode) const
{
    return sched::compile(source, _machine, optionsFor(mode));
}

RunResult
CoupledNode::run(const isa::Program& program) const
{
    return run(program, nullptr, false);
}

RunResult
CoupledNode::run(const isa::Program& program, const sim::TraceFn& tracer,
                 bool trace_stalls) const
{
    return run(program, sim::SimOptions{}, tracer, trace_stalls);
}

RunResult
CoupledNode::run(const isa::Program& program,
                 const sim::SimOptions& options,
                 const sim::TraceFn& tracer, bool trace_stalls) const
{
    return runProgram(_machine, program, options, tracer, trace_stalls);
}

RunResult
runProgram(const config::MachineConfig& machine,
           const isa::Program& program, const sim::SimOptions& options,
           const sim::TraceFn& tracer, bool trace_stalls)
{
    RunResult out;
    // Keep what value()/intValue() read, not the instruction stream.
    out.compiled.program.symbols = program.symbols;
    out.compiled.program.memorySize = program.memorySize;
    sim::Simulator simulator(machine, program, options);
    if (tracer) {
        simulator.setTracer(tracer);
        simulator.setTraceStalls(trace_stalls);
    }
    out.stats = simulator.run();
    out.memory.reserve(program.memorySize);
    for (std::uint32_t a = 0; a < program.memorySize; ++a)
        out.memory.push_back(simulator.memory().peek(a));
    return out;
}

RunResult
CoupledNode::runSource(const std::string& source, SimMode mode) const
{
    auto compiled = compile(source, mode);
    RunResult out = run(compiled.program);
    out.compiled = std::move(compiled);
    return out;
}

RunResult
CoupledNode::runBenchmark(const BenchmarkSource& bench,
                          SimMode mode) const
{
    return runSource(bench.forMode(mode), mode);
}

} // namespace core
} // namespace procoup
