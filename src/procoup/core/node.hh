#ifndef PROCOUP_CORE_NODE_HH
#define PROCOUP_CORE_NODE_HH

/**
 * @file
 * Public façade of the processor-coupling library.
 *
 * A CoupledNode binds a machine configuration; it compiles PCL source
 * in one of the paper's five simulation modes and executes the result
 * on the cycle-level simulator:
 *
 *  - SEQ:     one thread, one cluster (a statically scheduled machine
 *             with an IU, an FPU, a memory unit, and a branch unit);
 *  - STS:     one thread, all clusters (a VLIW without trace
 *             scheduling);
 *  - Ideal:   one fully unrolled, completely statically scheduled
 *             thread (lower bound; only for statically analyzable
 *             benchmarks);
 *  - TPE:     thread per element, each pinned to a single cluster;
 *  - Coupled: multiple threads, unrestricted function-unit use — the
 *             paper's processor coupling.
 */

#include <string>
#include <vector>

#include "procoup/config/machine.hh"
#include "procoup/isa/program.hh"
#include "procoup/sched/compiler.hh"
#include "procoup/sim/simulator.hh"
#include "procoup/sim/stats.hh"

namespace procoup {
namespace core {

/** The five machine models of Section 3 ("Simulation Modes"). */
enum class SimMode
{
    Seq,
    Sts,
    Ideal,
    Tpe,
    Coupled,
};

std::string simModeName(SimMode m);

/** All five modes, in the paper's order. */
const std::vector<SimMode>& allSimModes();

/** The compiler flags a mode implies. */
sched::CompileOptions optionsFor(SimMode m);

/**
 * A benchmark's source bundle: the same computation expressed the
 * three ways the paper's evaluation needs it.
 */
struct BenchmarkSource
{
    std::string name;

    /** Stable position in benchmarks::all() (the paper's order), or
     *  -1 for sources not in the registry. Harnesses key sweep
     *  results by this id (or by sweep-point label) instead of
     *  re-deriving keys from the name. */
    int id = -1;

    /** Single-threaded version (SEQ and STS runs). */
    std::string sequential;

    /** Fully unrolled single-threaded version; empty when the
     *  benchmark has data-dependent control and no Ideal mode. */
    std::string ideal;

    /** fork/forall version (TPE and Coupled runs). */
    std::string threaded;

    bool hasIdeal() const { return !ideal.empty(); }

    /** Select the source for a mode. @throws CompileError if the
     *  mode needs an Ideal variant that does not exist. */
    const std::string& forMode(SimMode m) const;
};

/** Everything one run produces. */
struct RunResult
{
    /**
     * The compilation that ran. runSource() and runBenchmark() store
     * all of it. run() stores only what value() and intValue() read,
     * the symbol table and the memory size, and so does a sweep
     * outcome, which adds the schedule's funcInfo (exp/runner.hh).
     */
    sched::CompileResult compiled;
    sim::RunStats stats;

    /** Final data-segment contents (presence bits dropped). */
    std::vector<isa::Value> memory;

    /** Read one word of a data symbol as a double. */
    double value(const std::string& symbol, std::uint32_t offset = 0)
        const;

    /** Read one word of a data symbol as an integer. */
    std::int64_t intValue(const std::string& symbol,
                          std::uint32_t offset = 0) const;
};

/** One processor-coupled node: compile and execute programs on it. */
class CoupledNode
{
  public:
    explicit CoupledNode(config::MachineConfig machine);

    const config::MachineConfig& machine() const { return _machine; }

    /** Compile source for this node in the given mode. */
    sched::CompileResult compile(const std::string& source,
                                 SimMode mode) const;

    /** Execute a compiled program to completion. The result keeps
     *  the program's symbols and memory size, not its code. */
    RunResult run(const isa::Program& program) const;

    /** Execute with a trace sink installed (nullptr = no tracing).
     *  Tracing is observational: results and stats are unchanged. */
    RunResult run(const isa::Program& program, const sim::TraceFn& tracer,
                  bool trace_stalls) const;

    /** Execute under per-run options: a fault plan, execution budgets,
     *  and/or the invariant sanitizer (tracer optional as above). */
    RunResult run(const isa::Program& program,
                  const sim::SimOptions& options,
                  const sim::TraceFn& tracer = nullptr,
                  bool trace_stalls = false) const;

    /** Compile and run in one step. */
    RunResult runSource(const std::string& source, SimMode mode) const;

    /** Compile and run the mode-appropriate variant of a benchmark. */
    RunResult runBenchmark(const BenchmarkSource& bench,
                           SimMode mode) const;

  private:
    config::MachineConfig _machine;
};

} // namespace core
} // namespace procoup

#endif // PROCOUP_CORE_NODE_HH
