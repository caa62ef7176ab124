/** @file Tests for the machine-description parser. */

#include <gtest/gtest.h>

#include <limits>

#include "procoup/config/parse.hh"
#include "procoup/config/presets.hh"
#include "procoup/config/validate.hh"
#include "procoup/core/node.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace {

using config::parseMachine;

TEST(ConfigParse, FullDescription)
{
    const auto m = parseMachine(R"(
        (machine testbox
          (cluster (iu 1) (fpu 4) (mem 2))
          (cluster (iu 1) (mem 1))
          (cluster (br 1))
          (interconnect tri-port)
          (memory :hit 2 :miss-rate 0.05 :penalty 20 100
                  :banks 8 :seed 7 :bank-conflicts)
          (max-active-threads 16))
    )");
    EXPECT_EQ(m.name, "testbox");
    ASSERT_EQ(m.clusters.size(), 3u);
    EXPECT_EQ(m.clusters[0].units.size(), 3u);
    EXPECT_EQ(m.clusters[0].units[1].type, isa::UnitType::Float);
    EXPECT_EQ(m.clusters[0].units[1].latency, 4);
    EXPECT_EQ(m.interconnect, config::InterconnectScheme::TriPort);
    EXPECT_EQ(m.memory.hitLatency, 2);
    EXPECT_DOUBLE_EQ(m.memory.missRate, 0.05);
    EXPECT_EQ(m.memory.missPenaltyMax, 100);
    EXPECT_EQ(m.memory.numBanks, 8);
    EXPECT_EQ(m.memory.seed, 7u);
    EXPECT_TRUE(m.memory.modelBankConflicts);
    EXPECT_EQ(m.maxActiveThreads, 16);
}

TEST(ConfigParse, DefaultsAreSane)
{
    const auto m = parseMachine(
        "(machine (cluster (iu) (fpu) (mem)) (cluster (br)))");
    EXPECT_EQ(m.clusters[0].units[0].latency, 1);
    EXPECT_EQ(m.interconnect, config::InterconnectScheme::Full);
    EXPECT_DOUBLE_EQ(m.memory.missRate, 0.0);
    EXPECT_EQ(m.maxActiveThreads, 0);
}

TEST(ConfigParse, AllInterconnectNames)
{
    const char* names[] = {"full", "tri-port", "dual-port",
                           "single-port", "shared-bus"};
    for (const char* n : names) {
        const auto m = parseMachine(strCat(
            "(machine (cluster (iu) (mem)) (cluster (br))"
            " (interconnect ", n, "))"));
        EXPECT_FALSE(
            config::interconnectSchemeName(m.interconnect).empty());
    }
}

TEST(ConfigParse, Rejections)
{
    // No clusters.
    EXPECT_THROW(parseMachine("(machine)"), CompileError);
    // No branch unit anywhere.
    EXPECT_THROW(parseMachine("(machine (cluster (iu) (mem)))"),
                 CompileError);
    // Unknown unit type.
    EXPECT_THROW(parseMachine(
        "(machine (cluster (gpu 1)) (cluster (br)))"), CompileError);
    // Bad latency.
    EXPECT_THROW(parseMachine(
        "(machine (cluster (iu 0)) (cluster (br)))"), CompileError);
    // Inverted penalty range.
    EXPECT_THROW(parseMachine(
        "(machine (cluster (iu) (mem)) (cluster (br))"
        " (memory :penalty 100 20))"), CompileError);
    // Miss rate out of range.
    EXPECT_THROW(parseMachine(
        "(machine (cluster (iu) (mem)) (cluster (br))"
        " (memory :miss-rate 1.5))"), CompileError);
    // Not a machine form.
    EXPECT_THROW(parseMachine("(cluster (iu))"), CompileError);
    // Unknown section.
    EXPECT_THROW(parseMachine(
        "(machine (cluster (iu) (mem)) (cluster (br)) (bogus))"),
        CompileError);
    // Integers outside int range, each of which a narrowing cast
    // would wrap to a valid value (2^32 + 1 to 1, 2^32 to 0).
    const std::string base = "(machine (cluster (iu) (mem)) (cluster (br))";
    for (const char* tail :
         {" (cluster (iu 4294967297)))", " (cluster (iu -4294967295)))",
          " (memory :hit 4294967296))",
          " (memory :penalty 4294967316 100))",
          " (memory :penalty 20 4294967396))",
          " (memory :banks 4294967297))",
          " (opcache :lines 4294967297))",
          " (opcache :rows-per-line 4294967297))",
          " (opcache :penalty 4294967296))",
          " (max-active-threads 4294967297))",
          " (swap-out-idle 4294967297))"}) {
        SCOPED_TRACE(tail);
        try {
            parseMachine(base + tail);
            ADD_FAILURE() << "accepted";
        } catch (const CompileError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "out of range (at line 1, column "),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ConfigParse, ValidateMachineChecksBuiltMachines)
{
    // The parser's semantic checks, on machines built in code (as a
    // decoded plan builds them).
    EXPECT_NO_THROW(config::validateMachine(config::baseline()));
    auto m = config::baseline();
    m.opCache.enabled = true;
    m.opCache.linesPerUnit = 0;
    EXPECT_THROW(config::validateMachine(m), CompileError);
    m.opCache.enabled = false;
    EXPECT_NO_THROW(config::validateMachine(m));
    m.memory.missRate = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(config::validateMachine(m), CompileError);
    // Memory timings and a deadlock limit the simulator cannot run.
    m = config::baseline();
    m.memory.hitLatency = -3;
    EXPECT_THROW(config::validateMachine(m), CompileError);
    m = config::baseline();
    m.memory.missPenaltyMin = -5;
    m.memory.missPenaltyMax = -1;
    EXPECT_THROW(config::validateMachine(m), CompileError);
    m = config::baseline();
    m.deadlockCycleLimit = 0;
    EXPECT_THROW(config::validateMachine(m), CompileError);
    EXPECT_THROW(parseMachine("(machine x (cluster (iu) (mem)) (cluster (br))"
                              " (memory :hit -3))"),
                 CompileError);
    EXPECT_THROW(parseMachine("(machine x (cluster (iu) (mem)) (cluster (br))"
                              " (memory :penalty -5 -1 :miss-rate 0.5))"),
                 CompileError);
}

TEST(ConfigParse, OpCacheAndSwapSections)
{
    const auto m = parseMachine(R"(
        (machine knobs
          (cluster (iu) (fpu) (mem))
          (cluster (br))
          (opcache :lines 32 :rows-per-line 2 :penalty 6)
          (max-active-threads 8)
          (swap-out-idle 24))
    )");
    EXPECT_TRUE(m.opCache.enabled);
    EXPECT_EQ(m.opCache.linesPerUnit, 32);
    EXPECT_EQ(m.opCache.rowsPerLine, 2);
    EXPECT_EQ(m.opCache.missPenalty, 6);
    EXPECT_EQ(m.maxActiveThreads, 8);
    EXPECT_EQ(m.swapOutIdleCycles, 24);

    EXPECT_THROW(parseMachine(
        "(machine x (cluster (iu) (mem)) (cluster (br))"
        " (opcache :lines 0))"), CompileError);
}

TEST(ConfigParse, ParsedMachineRunsPrograms)
{
    // A parsed description is a first-class machine: compile and run.
    const auto m = parseMachine(R"(
        (machine two-cluster
          (cluster (iu 1) (fpu 1) (mem 1))
          (cluster (iu 1) (fpu 1) (mem 1))
          (cluster (br 1))
          (interconnect dual-port))
    )");
    core::CoupledNode node(m);
    const auto run = node.runSource(
        "(defvar out 0.0)"
        "(defun main ()"
        "  (let ((s 0.0))"
        "    (for (i 0 8) (set s (+ s (float i))))"
        "    (set out s)))",
        core::SimMode::Coupled);
    EXPECT_DOUBLE_EQ(run.value("out"), 28.0);
}

} // namespace
} // namespace procoup
