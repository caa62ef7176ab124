#ifndef PROCOUP_GEN_SOAK_HH
#define PROCOUP_GEN_SOAK_HH

/**
 * @file
 * Differential soak harness: the fuzz farm's oracle.
 *
 * For a range of generator seeds, runSoak() builds one big
 * ExperimentPlan (every generated program x machine x mode, with and
 * without a fault plan), executes it on the sweep engine in fail-safe
 * mode, and checks the invariants every generated program carries by
 * construction (gen/generator.hh):
 *
 *  1. no run may raise SimError — generated programs terminate and
 *     stay far under the per-point cycle budget;
 *  2. every mode must reproduce SEQ's results bit-for-bit on every
 *     declared data symbol (mode portability);
 *  3. a faulted run must reproduce its clean twin's results — faults
 *     perturb timing, never values;
 *  4. an optional per-point cross-check hook — the tier-1 soak test
 *     plugs in tests/slow_reference_sim.hh and requires bit-identical
 *     RunStats and memory from both simulators.
 *
 * Failures are minimized by the delta-debugging reducer (gen/reduce.hh)
 * with "checkProgram still reports a failure" as the predicate, so a
 * SoakMismatch arrives with a small witness ready to be checked into
 * tests/corpus/.
 *
 * checkProgram() is the same battery for one source — the reducer
 * predicate, the corpus replay test, and ad-hoc triage all reuse it.
 * It discovers the symbols to compare by scanning the source's
 * defvar/defarray forms, so it works on reduced candidates whose
 * symbol set has shrunk.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "procoup/core/node.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"
#include "procoup/gen/generator.hh"

namespace procoup {
namespace gen {

/**
 * Per-point cross-check hook. Receives the executed point and its
 * result, whose compiled field holds the whole compilation when the
 * point ran in this process (RunOutcome::compiled); returns "" if
 * satisfied, else a one-line diagnostic. The hook may skip points it
 * does not care about by returning "". Called serially, in plan
 * order, after the sweep drains.
 */
using CrossCheck = std::function<std::string(
    const exp::SweepPoint&, const core::RunResult&)>;

struct SoakOptions
{
    std::uint64_t firstSeed = 1;
    int programs = 100;
    GenOptions gen;

    /** Also run every (machine, mode) point under a fault plan and
     *  require value-identical results. */
    bool withFaults = true;
    double faultIntensity = 0.5;
    std::uint64_t faultSeed = 7;

    /** Sweep worker threads (0 = hardware concurrency). */
    int jobs = 0;

    /** Per-point cycle budget; a generated program that hits it is a
     *  soak failure (they terminate in a few thousand cycles). */
    std::uint64_t maxCycles = 2000000;

    /** Minimize each failing program with gen/reduce. */
    bool reduceFailures = true;
    int reduceProbes = 400;
};

/** One soak failure, minimized when reduction is enabled. */
struct SoakMismatch
{
    std::uint64_t seed = 0;    ///< generator seed (0 for ad-hoc source)
    std::string label;         ///< offending sweep-point label
    std::string kind;          ///< sim-error | mode-mismatch |
                               ///< fault-mismatch | cross-check
    std::string detail;        ///< first differing symbol/word, etc.
    std::string source;        ///< full failing program
    std::string reduced;       ///< minimized witness ("" if disabled)
};

struct SoakReport
{
    int programs = 0;
    int points = 0;            ///< sweep points executed
    double wallMs = 0.0;       ///< sweep wall-clock
    std::vector<SoakMismatch> mismatches;

    bool ok() const { return mismatches.empty(); }
    std::string summary() const;
};

/** One generated program's slice of a soak plan. */
struct SoakUnit
{
    std::uint64_t seed = 0;
    std::string source;
    std::vector<std::string> symbols;
    std::size_t firstPoint = 0;  ///< index of its clean SEQ reference
    std::size_t pointCount = 0;
};

/** A built (not yet executed) soak: the sweep plan plus the grouping
 *  analyzeSoak() needs. bench/fuzz_soak runs the plan through the
 *  standard harness scaffolding and analyzes in its render callback;
 *  runSoak() below is the library-call version of the same flow. */
struct SoakPlan
{
    exp::ExperimentPlan plan{"fuzz_soak"};
    std::vector<SoakUnit> units;
    SoakOptions opts;
};

/** Generate opts.programs seeds and lay out their sweep points. */
SoakPlan buildSoakPlan(const SoakOptions& opts);

/** Check every unit's invariants against the executed sweep. The
 *  sweep must come from running sp.plan unfiltered (outcomes are
 *  located by index). Mismatches are returned unreduced. */
std::vector<SoakMismatch> analyzeSoak(const SoakPlan& sp,
                                      const exp::SweepResult& sweep,
                                      const CrossCheck& crossCheck =
                                          nullptr);

/** Minimize each mismatch in place (fills SoakMismatch::reduced)
 *  using "still fails checkProgram" as the reducer predicate. */
void reduceMismatches(std::vector<SoakMismatch>& mismatches,
                      const SoakOptions& opts,
                      const CrossCheck& crossCheck = nullptr);

/** Generate and differentially check opts.programs seeds. */
SoakReport runSoak(const SoakOptions& opts,
                   const CrossCheck& crossCheck = nullptr);

/**
 * Run the full differential battery on one source. Returns "" when
 * every invariant holds, else "<kind>: <detail>" for the first
 * violation. Never throws on SimError (fail-safe); CompileError
 * propagates — callers feeding unvetted sources (the reducer) catch
 * it.
 */
std::string checkProgram(const std::string& source,
                         const SoakOptions& opts,
                         const CrossCheck& crossCheck = nullptr);

/** The data symbols a differential run compares: every defvar and
 *  defarray name in @p source, in declaration order. */
std::vector<std::string> discoverSymbols(const std::string& source);

} // namespace gen
} // namespace procoup

#endif // PROCOUP_GEN_SOAK_HH
