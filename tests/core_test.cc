/** @file Tests for the public core API: modes, option mapping,
 *  benchmark source bundles, and result readback. */

#include <gtest/gtest.h>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/core/node.hh"
#include "procoup/support/error.hh"

namespace procoup {
namespace {

using core::CoupledNode;
using core::SimMode;

TEST(Core, ModeNames)
{
    EXPECT_EQ(core::simModeName(SimMode::Seq), "SEQ");
    EXPECT_EQ(core::simModeName(SimMode::Sts), "STS");
    EXPECT_EQ(core::simModeName(SimMode::Ideal), "Ideal");
    EXPECT_EQ(core::simModeName(SimMode::Tpe), "TPE");
    EXPECT_EQ(core::simModeName(SimMode::Coupled), "Coupled");
    EXPECT_EQ(core::allSimModes().size(), 5u);
}

TEST(Core, OptionsForModeMapToSchedulingRestrictions)
{
    using sched::ScheduleMode;
    EXPECT_EQ(core::optionsFor(SimMode::Seq).mode,
              ScheduleMode::Single);
    EXPECT_EQ(core::optionsFor(SimMode::Tpe).mode,
              ScheduleMode::Single);
    EXPECT_EQ(core::optionsFor(SimMode::Sts).mode,
              ScheduleMode::Unrestricted);
    EXPECT_EQ(core::optionsFor(SimMode::Ideal).mode,
              ScheduleMode::Unrestricted);
    EXPECT_EQ(core::optionsFor(SimMode::Coupled).mode,
              ScheduleMode::Unrestricted);
}

TEST(Core, BenchmarkSourceSelection)
{
    const auto& m = benchmarks::byName("Matrix");
    EXPECT_EQ(&m.forMode(SimMode::Seq), &m.sequential);
    EXPECT_EQ(&m.forMode(SimMode::Sts), &m.sequential);
    EXPECT_EQ(&m.forMode(SimMode::Ideal), &m.ideal);
    EXPECT_EQ(&m.forMode(SimMode::Tpe), &m.threaded);
    EXPECT_EQ(&m.forMode(SimMode::Coupled), &m.threaded);
    EXPECT_THROW(benchmarks::byName("nope"), CompileError);
}

TEST(Core, RunResultReadback)
{
    CoupledNode node(config::baseline());
    const auto run = node.runSource(
        "(defvar x 0)"
        "(defarray a (3) :int)"
        "(defun main ()"
        "  (set x 7)"
        "  (aset a 1 5)"
        "  0)",
        SimMode::Coupled);
    EXPECT_EQ(run.intValue("x"), 7);
    EXPECT_EQ(run.intValue("a", 1), 5);
    EXPECT_EQ(run.intValue("a", 0), 0);
    EXPECT_DOUBLE_EQ(run.value("x"), 7.0);
    EXPECT_THROW(run.value("missing"), CompileError);
    EXPECT_EQ(run.memory.size(), run.compiled.program.memorySize);
}

TEST(Core, CompileThenRunSeparately)
{
    CoupledNode node(config::baseline());
    const auto compiled = node.compile(
        "(defvar out 0)"
        "(defun main () (set out 11))",
        SimMode::Sts);
    const auto run = node.run(compiled.program);
    // run() keeps the program's symbols in the result.
    EXPECT_EQ(run.intValue("out"), 11);
    EXPECT_GT(run.stats.cycles, 0u);
}

TEST(Core, CompileErrorsPropagate)
{
    CoupledNode node(config::baseline());
    EXPECT_THROW(node.runSource("(not-a-program", SimMode::Coupled),
                 CompileError);
    EXPECT_THROW(node.runSource("(defun nomain () 0)",
                                SimMode::Coupled),
                 CompileError);
}

TEST(Core, SimulatorErrorsPropagate)
{
    auto machine = config::baseline();
    machine.deadlockCycleLimit = 300;
    CoupledNode node(machine);
    // take of a never-filled cell, with the value consumed: deadlock.
    EXPECT_THROW(node.runSource(
                     "(defarray c (1) :int :empty)"
                     "(defvar out 0)"
                     "(defun main () (set out (take c 0)))",
                     SimMode::Coupled),
                 SimError);
}

TEST(Core, RuntimeDivisionByZeroTraps)
{
    CoupledNode node(config::baseline());
    EXPECT_THROW(node.runSource(
                     "(defvar z 0)"
                     "(defvar out 0)"
                     "(defun main () (set out (/ 5 z)))",
                     SimMode::Coupled),
                 SimError);
}

TEST(Core, ThreeDimensionalArrays)
{
    CoupledNode node(config::baseline());
    const auto run = node.runSource(
        "(defarray t (2 3 4))"
        "(defvar got 0.0)"
        "(defun main ()"
        "  (for (i 0 2) (for (j 0 3) (for (k 0 4)"
        "    (aset t i j k (+ (* 100.0 i) (+ (* 10.0 j) k))))))"
        "  (set got (aref t 1 2 3)))",
        SimMode::Coupled);
    EXPECT_DOUBLE_EQ(run.value("got"), 123.0);
    // Linear offset of [1][2][3] in a 2x3x4 array is 23.
    EXPECT_DOUBLE_EQ(run.value("t", 23), 123.0);
}

TEST(Core, PeakRegisterReportInPaperRange)
{
    // The paper: "the realistic machine configurations all have a
    // peak of fewer than 60 live registers per cluster ... each
    // cluster uses a peak of 27 registers" (averaged).
    CoupledNode node(config::baseline());
    for (const auto& b : benchmarks::all()) {
        for (auto mode : {SimMode::Seq, SimMode::Sts, SimMode::Tpe,
                          SimMode::Coupled}) {
            const auto compiled = node.compile(b.forMode(mode), mode);
            EXPECT_LT(compiled.peakRegistersPerCluster(), 120u)
                << b.name << "/" << core::simModeName(mode);
        }
    }
    // Ideal mode is allowed to blow up ("only ideal mode simulations
    // ... require as many as 490 registers").
    const auto ideal = node.compile(
        benchmarks::byName("Matrix").ideal, SimMode::Ideal);
    EXPECT_GT(ideal.peakRegistersPerCluster(), 100u);
}

TEST(Core, StatsAccountingIsConsistent)
{
    CoupledNode node(config::baseline());
    const auto run = node.runBenchmark(benchmarks::byName("Matrix"),
                                       SimMode::Coupled);
    const auto& s = run.stats;

    // Per-unit counts sum to per-class counts sum to the total.
    std::uint64_t by_fu = 0;
    for (auto n : s.opsByFu)
        by_fu += n;
    std::uint64_t by_class = 0;
    for (int t = 0; t < isa::numUnitTypes; ++t)
        by_class += s.opsByUnit[t];
    EXPECT_EQ(by_fu, s.totalOps);
    EXPECT_EQ(by_class, s.totalOps);

    // Per-unit utilization sums to per-class utilization.
    const auto machine = config::baseline();
    for (int t = 0; t < isa::numUnitTypes; ++t) {
        double sum = 0.0;
        for (int fu : machine.fusOfType(
                 static_cast<isa::UnitType>(t)))
            sum += s.fuUtilization(fu);
        EXPECT_NEAR(sum,
                    s.utilization(static_cast<isa::UnitType>(t)),
                    1e-9);
    }

    // Memory accounting: accesses = hits + misses; every memory op
    // issued became an access.
    EXPECT_EQ(s.memAccesses, s.memHits + s.memMisses);
    EXPECT_EQ(s.memAccesses,
              s.opsByUnit[static_cast<int>(isa::UnitType::Memory)]);

    // Per-thread issue counts sum to the total.
    std::uint64_t by_thread = 0;
    for (const auto& t : s.threads)
        by_thread += t.opsIssued;
    EXPECT_EQ(by_thread, s.totalOps);
}

} // namespace
} // namespace procoup
