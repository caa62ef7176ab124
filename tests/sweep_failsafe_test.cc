/** @file Fail-safe sweep execution: a plan containing a guaranteed
 *  deadlock and a wall-clock-timeout point must run to completion
 *  under RunnerOptions::failSafe, report both failures as structured
 *  error records (bundle and sweep report switch to their /2
 *  schemas), and leave every healthy point's stats bit-identical to a
 *  clean sweep of the same points. */

#include <gtest/gtest.h>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/parse.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/harness.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"
#include "procoup/exp/serialize.hh"
#include "procoup/fault/fault.hh"
#include "procoup/support/error.hh"

namespace procoup {
namespace {

/** take of a never-filled cell, with the value consumed: deadlock. */
constexpr const char* kDeadlockSource =
    "(defarray c (1) :int :empty)"
    "(defvar out 0)"
    "(defun main () (set out (take c 0)))";

/** A loop far too long to finish inside any test-sized deadline. */
constexpr const char* kEndlessSource =
    "(defvar out 0)"
    "(defun main ()"
    "  (for (i 0 1000000000) (set out (+ out 1))))";

/** Options of a serial sweep. */
exp::RunnerOptions
serial()
{
    exp::RunnerOptions o;
    o.jobs = 1;
    return o;
}

config::MachineConfig
testMachine()
{
    auto m = config::baseline();
    m.deadlockCycleLimit = 300;
    return m;
}

exp::ExperimentPlan
hazardPlan()
{
    const auto machine = testMachine();
    exp::ExperimentPlan plan("failsafe");
    plan.addBenchmark(machine, benchmarks::byName("Matrix"),
                      core::SimMode::Coupled);
    plan.addSource("deadlock-point", machine, kDeadlockSource,
                   core::SimMode::Coupled);
    exp::SweepPoint& timeout = plan.addSource(
        "timeout-point", machine, kEndlessSource,
        core::SimMode::Coupled);
    timeout.simOptions.limits.wallClockDeadlineMs = 5.0;
    plan.addBenchmark(machine, benchmarks::byName("LUD"),
                      core::SimMode::Coupled);
    return plan;
}

TEST(SweepFailSafe, WithoutFailSafeTheSweepThrows)
{
    const auto plan = hazardPlan();
    exp::SweepRunner runner(serial());
    EXPECT_THROW(runner.run(plan), SimError);
}

TEST(SweepFailSafe, HazardousPointsBecomeErrorRecords)
{
    const auto plan = hazardPlan();
    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.failSafe = true;
    exp::SweepRunner runner(ropts);
    const exp::SweepResult result = runner.run(plan);

    ASSERT_EQ(result.outcomes.size(), 4u);
    EXPECT_EQ(result.failedCount(), 2u);

    const exp::RunOutcome& dead = result.at("deadlock-point");
    EXPECT_TRUE(dead.failed);
    EXPECT_EQ(dead.errorKind, SimErrorKind::Deadlock);
    EXPECT_GT(dead.errorCycle, 0u);
    EXPECT_NE(dead.error.find("deadlock at cycle"), std::string::npos)
        << dead.error;
    EXPECT_NE(dead.error.find("waiting:"), std::string::npos)
        << dead.error;

    const exp::RunOutcome& slow = result.at("timeout-point");
    EXPECT_TRUE(slow.failed);
    EXPECT_EQ(slow.errorKind, SimErrorKind::WallClockDeadline);
    EXPECT_NE(slow.error.find("wall-clock deadline"),
              std::string::npos)
        << slow.error;

    // The healthy points are untouched by their neighbors' failures:
    // bit-identical to a sweep that never contained the hazards.
    exp::ExperimentPlan clean("clean");
    clean.addBenchmark(testMachine(), benchmarks::byName("Matrix"),
                       core::SimMode::Coupled);
    clean.addBenchmark(testMachine(), benchmarks::byName("LUD"),
                       core::SimMode::Coupled);
    exp::SweepRunner clean_runner(serial());
    const exp::SweepResult ref = clean_runner.run(clean);
    for (const auto& o : ref.outcomes) {
        const exp::RunOutcome& got = result.at(o.point->label);
        EXPECT_FALSE(got.failed);
        EXPECT_TRUE(got.result.stats == o.result.stats)
            << o.point->label;
        EXPECT_TRUE(got.result.memory == o.result.memory)
            << o.point->label;
    }
}

TEST(SweepFailSafe, BundleAndReportCarryErrorRecords)
{
    const auto plan = hazardPlan();
    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.failSafe = true;
    exp::SweepRunner runner(ropts);
    const exp::SweepResult result = runner.run(plan);

    const std::string bundle = exp::formatStatsBundle(result);
    EXPECT_NE(bundle.find("procoup-stats-bundle/2"),
              std::string::npos);
    EXPECT_NE(bundle.find("\"kind\": \"deadlock\""),
              std::string::npos);
    EXPECT_NE(bundle.find("\"kind\": \"wall-clock-deadline\""),
              std::string::npos);

    exp::HarnessOptions hopts;
    const std::string report =
        exp::formatSweepReport(plan, result, hopts);
    EXPECT_NE(report.find("procoup-sweep/2"), std::string::npos);
    EXPECT_NE(report.find("\"failed_points\": 2"), std::string::npos);
    EXPECT_NE(report.find("\"label\": \"deadlock-point\""),
              std::string::npos);
}

TEST(SweepFailSafe, MachineMissingAUnitClassIsACompileError)
{
    // The machine parses but has no FPU for Matrix: the point becomes
    // the compile-error record that procoupd and isolated workers
    // stream, and an in-process sweep throws CompileError, where the
    // scheduler used to abort the process.
    exp::ExperimentPlan plan("no-fpu");
    plan.addBenchmark(config::parseMachine(
                          "(machine (cluster (iu) (mem)) (cluster (br)))"),
                      benchmarks::byName("Matrix"), core::SimMode::Coupled);
    exp::CompileCache cache;
    const exp::OutcomeRecord rec = exp::executePointToRecord(
        plan.points().front(), "no-fpu", cache, exp::RunnerOptions{});
    EXPECT_EQ(rec.threw, 2);
    EXPECT_NE(rec.error.find("needs a unit of class FPU"),
              std::string::npos)
        << rec.error;

    exp::RunnerOptions ropts;
    ropts.failSafe = true;
    exp::SweepRunner runner(ropts);
    EXPECT_THROW(runner.run(plan), CompileError);
}

TEST(SweepFailSafe, RetryRecordsFirstDeterministicError)
{
    // A deadlock independent of the fault schedule fails every
    // reseeded retry too; the recorded error must be the *first* one,
    // with the whole bounded retry budget counted in the record.
    const auto machine = testMachine();
    exp::ExperimentPlan plan("retry");
    exp::SweepPoint& p = plan.addSource("faulted-deadlock", machine,
                                        kDeadlockSource,
                                        core::SimMode::Coupled);
    p.simOptions.faults = fault::FaultPlan::atIntensity(1.0, 3);

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.failSafe = true;
    ropts.retryFaulted = true;
    ropts.retryPolicy.maxAttempts = 3;   // 2 retries after the first
    ropts.retryPolicy.baseDelayMs = 1.0; // keep the test fast
    exp::SweepRunner runner(ropts);
    const exp::SweepResult result = runner.run(plan);

    const exp::RunOutcome& o = result.at("faulted-deadlock");
    EXPECT_TRUE(o.failed);
    EXPECT_EQ(o.retries, ropts.retryPolicy.maxRetries());
    EXPECT_EQ(o.errorKind, SimErrorKind::Deadlock);

    // Unfaulted points are never retried: their failures replay
    // identically by construction.
    exp::ExperimentPlan plain("plain");
    plain.addSource("bare-deadlock", machine, kDeadlockSource,
                    core::SimMode::Coupled);
    const exp::SweepResult result2 = runner.run(plain);
    EXPECT_EQ(result2.at("bare-deadlock").retries, 0);
    EXPECT_TRUE(result2.at("bare-deadlock").failed);
}

} // namespace
} // namespace procoup
