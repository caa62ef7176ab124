#ifndef PROCOUP_EXP_PLAN_HH
#define PROCOUP_EXP_PLAN_HH

/**
 * @file
 * Declarative experiment plans.
 *
 * The paper's evaluation is a grid — machine models x benchmarks x
 * machine-config ablations (Tables 2-3, Figures 4-8). An
 * ExperimentPlan captures one such grid as an ordered list of
 * SweepPoints; exp::SweepRunner executes it (in parallel, with
 * compile caching) and returns results in plan order, so harnesses
 * reduce to plan construction plus table rendering.
 *
 * Every point carries a label, unique within its plan. Labels are the
 * stable public identity of a point: they key the --stats-json bundle
 * entries, they are what --filter matches and --list prints, and
 * SweepResult::at(label) retrieves a point's outcome without
 * re-deriving keys from benchmark names.
 */

#include <string>
#include <unordered_set>
#include <vector>

#include "procoup/config/machine.hh"
#include "procoup/core/node.hh"
#include "procoup/sched/compiler.hh"
#include "procoup/sim/simulator.hh"
#include "procoup/sim/trace.hh"

namespace procoup {
namespace exp {

/** One cell of an experiment grid: run one source on one machine. */
struct SweepPoint
{
    /** Unique-within-plan display/filter/bundle key. */
    std::string label;

    config::MachineConfig machine;

    /** PCL source text to compile and execute. */
    std::string source;

    core::SimMode mode = core::SimMode::Coupled;

    /** Compile options; defaulted from `mode` by the add* helpers.
     *  Knob overrides (e.g. forkClones) go here. */
    sched::CompileOptions options;

    /** Registry benchmark to verify the run against; empty = no
     *  verification (ad-hoc sources like the Table 3 queue programs). */
    std::string verifyBenchmark;

    /** Stable registry id of the benchmark, or -1 for ad-hoc sources. */
    int benchmarkId = -1;

    /** Optional trace sink (pcsim). Tracing is observational; the
     *  sink is called from the worker thread executing this point. */
    sim::TraceFn tracer;
    bool traceStalls = false;

    /** Per-run simulation options: fault plan, execution budgets,
     *  sanitizer cadence. Defaults are all off (zero-cost). */
    sim::SimOptions simOptions;
};

/** An ordered list of sweep points, executed by exp::SweepRunner. */
class ExperimentPlan
{
  public:
    explicit ExperimentPlan(std::string name) : _name(std::move(name)) {}

    const std::string& name() const { return _name; }
    const std::vector<SweepPoint>& points() const { return _points; }

    /** Mutable access for post-construction tuning (e.g. a harness
     *  applying --sanitize or --faults to every point). Labels must
     *  stay as added; add() is still the only way to append. */
    std::vector<SweepPoint>& mutablePoints() { return _points; }
    bool empty() const { return _points.empty(); }
    std::size_t size() const { return _points.size(); }

    /** Append a fully specified point. @throws on duplicate label */
    SweepPoint& add(SweepPoint point);

    /** add() for untrusted points: false, and nothing appended, on an
     *  empty label or one the plan already holds. */
    bool tryAdd(SweepPoint&& point);

    /**
     * Append a registry benchmark run: verification on, label
     * "<bench>/<mode>@<machine.name>" unless @p label is given.
     * Options default to core::optionsFor(mode).
     */
    SweepPoint& addBenchmark(const config::MachineConfig& machine,
                             const core::BenchmarkSource& bench,
                             core::SimMode mode,
                             const std::string& label = "");

    /** Append an ad-hoc source run (no verification). */
    SweepPoint& addSource(const std::string& label,
                          const config::MachineConfig& machine,
                          const std::string& source, core::SimMode mode);

    /** The canonical "<bench>/<mode>@<machine>" label. */
    static std::string benchmarkLabel(const core::BenchmarkSource& bench,
                                      core::SimMode mode,
                                      const config::MachineConfig& machine);

    /** Copy with only the points whose label contains @p substring. */
    ExperimentPlan filtered(const std::string& substring) const;

  private:
    std::string _name;
    std::vector<SweepPoint> _points;
    std::unordered_set<std::string> _labels;  ///< as added: one lookup
};

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_PLAN_HH
