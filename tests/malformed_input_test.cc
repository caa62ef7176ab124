/** @file Malformed-input hardening: truncated, garbage, or
 *  wrongly-typed PCL programs and machine descriptions must surface
 *  as structured CompileError diagnostics with a source location —
 *  never as an assertion abort or a crash. Every case here reaches a
 *  parser or typed-accessor path that user input can hit through
 *  pcsim (--machine FILE, program.pcl). */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/parse.hh"
#include "procoup/config/presets.hh"
#include "procoup/core/node.hh"
#include "procoup/gen/generator.hh"
#include "procoup/support/error.hh"

namespace procoup {
namespace {

TEST(MalformedInput, BrokenProgramsRaiseCompileError)
{
    const std::vector<std::string> sources = {
        "",                                  // empty file
        "(defun main (",                     // truncated mid-list
        "(defun main ())))",                 // extra closers
        "@#$%!",                             // garbage bytes
        "(defun 42 ())",                     // number where a symbol
        "(defun main () (+ 1",               // truncated expression
        "(defvar x 99999999999999999999999)" // integer overflow
        "(defun main () 0)",
        "(defun main () (undefined-op 1))",  // unknown operator
        "(1 2 3)",                           // list head not a symbol
        "(defun main () (aref))",            // arity underflow
        "(defvar x (sin))(defun main () 0)", // constant arity underflow
        "(defvar x (+ 1))(defun main () 0)",
        "(defarray a (2) :init-each (min))(defun main () 0)",
        "(defarray a (1))(defun main () (- (aset a 0 1.0)))", // void
    };
    core::CoupledNode node(config::baseline());
    for (const auto& src : sources)
        EXPECT_THROW(node.runSource(src, core::SimMode::Coupled),
                     CompileError)
            << "source: " << src;
}

TEST(MalformedInput, BrokenMachineDescriptionsRaiseCompileError)
{
    const std::vector<std::string> descriptions = {
        "",                                   // empty file
        "(machine",                           // truncated
        "(machine (cluster",                  // truncated deeper
        "garbage here",                       // not a machine form
        "(machine 5)",                        // int where a list
        "(machine (cluster))",                // cluster with no units
        "(machine (cluster (quux)))",         // unknown unit type
        "(machine (cluster (iu 2.5)))",       // float latency
        "(machine (cluster (iu 0)))",         // latency out of range
        "(machine (cluster (iu)) (interconnect mesh))", // bad scheme
        "(machine (cluster (iu)) (memory :banks x))",   // symbol count
    };
    for (const auto& desc : descriptions)
        EXPECT_THROW(config::parseMachine(desc), CompileError)
            << "description: " << desc;
}

TEST(MalformedInput, MachinesMissingAUnitClassRaiseCompileError)
{
    // Valid descriptions whose clusters cannot serve the code. The
    // first has no FPU at all. The second has one, and a memory unit,
    // but single-cluster placement (TPE) puts each thread on a cluster
    // without memory, so the check must follow each function's
    // placement rather than the machine as a whole.
    struct Case
    {
        const char* machine;
        core::SimMode mode;
        const char* unitClass;
    };
    const Case cases[] = {
        {"(machine (cluster (iu) (mem)) (cluster (br)))",
         core::SimMode::Coupled, "FPU"},
        {"(machine (cluster (iu) (fpu)) (cluster (mem)) (cluster (br)))",
         core::SimMode::Tpe, "MEM"},
    };
    const auto& matrix = benchmarks::byName("Matrix");
    for (const auto& c : cases) {
        core::CoupledNode node(config::parseMachine(c.machine));
        try {
            node.compile(matrix.forMode(c.mode), c.mode);
            ADD_FAILURE() << "compiled on " << c.machine;
        } catch (const CompileError& e) {
            const std::string what = e.what();
            EXPECT_EQ(what.rfind("function '", 0), 0u) << what;
            EXPECT_NE(what.find(std::string("needs a unit of class ") +
                                c.unitClass),
                      std::string::npos)
                << what;
        }
    }

    // The same machine serves the modes that may spread a thread over
    // every cluster.
    core::CoupledNode split(config::parseMachine(cases[1].machine));
    for (auto mode : {core::SimMode::Coupled, core::SimMode::Sts})
        EXPECT_NO_THROW(split.compile(matrix.forMode(mode), mode));
}

TEST(MalformedInput, DiagnosticsCarrySourceLocations)
{
    try {
        config::parseMachine("(machine\n  (cluster (iu 2.5)))");
        FAIL() << "expected CompileError";
    } catch (const CompileError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    }
}

/** Generator-derived near-misses: take known-good generated programs
 *  and apply every deterministic corruption mutateToNearMiss knows
 *  (truncations, dropped/doubled parens, nesting bombs, out-of-range
 *  literals, misspelled defun, stray control bytes, spliced
 *  duplicate forms). Each mutant must either still compile or raise
 *  CompileError — anything else (assertion abort, std::bad_alloc,
 *  stack overflow, silent wrong parse crashing the sim) is a
 *  frontend hardening bug. This loop found the duplicate-global
 *  panic the frontend now rejects. */
TEST(MalformedInput, GeneratorNearMissesNeverCrashTheFrontend)
{
    core::CoupledNode node(config::baseline());
    int compiled = 0;
    int rejected = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const std::string good = gen::generate(seed).source;
        for (std::uint64_t mut = 0; mut < 10; ++mut) {
            const std::string bad =
                gen::mutateToNearMiss(good, seed * 10 + mut);
            try {
                node.runSource(bad, core::SimMode::Seq);
                ++compiled;
            } catch (const CompileError&) {
                ++rejected;
            }
            // Any other exception or signal fails the test.
        }
    }
    // Sanity: the mutator must actually produce both kinds.
    EXPECT_GT(compiled, 0);
    EXPECT_GT(rejected, compiled);
}

TEST(MalformedInput, DeepNestingIsDepthCapped)
{
    std::string bomb = "(defun main () ";
    for (int i = 0; i < 3000; ++i)
        bomb += "(+ 1 ";
    bomb += "1";
    for (int i = 0; i < 3000; ++i)
        bomb += ")";
    bomb += ")";
    core::CoupledNode node(config::baseline());
    EXPECT_THROW(node.runSource(bomb, core::SimMode::Seq),
                 CompileError);
}

TEST(MalformedInput, DuplicateGlobalsAreRejected)
{
    core::CoupledNode node(config::baseline());
    EXPECT_THROW(node.runSource("(defvar x 1)(defvar x 2)"
                                "(defun main () x)",
                                core::SimMode::Seq),
                 CompileError);
    EXPECT_THROW(node.runSource("(defarray a (4) :int)"
                                "(defvar a 0)(defun main () 0)",
                                core::SimMode::Seq),
                 CompileError);
}

TEST(MalformedInput, HugeArraySizesAreRejectedNotWrapped)
{
    core::CoupledNode node(config::baseline());
    // 70000 * 70000 words overflows the uint32 size product; the
    // frontend must reject it, not wrap and allocate garbage.
    EXPECT_THROW(node.runSource("(defarray big (70000 70000) :int)"
                                "(defun main () 0)",
                                core::SimMode::Seq),
                 CompileError);
    EXPECT_THROW(node.runSource("(defarray big (20000000) :int)"
                                "(defun main () 0)",
                                core::SimMode::Seq),
                 CompileError);
}

TEST(MalformedInput, ConstantIndexOutOfRangeIsRejected)
{
    core::CoupledNode node(config::baseline());
    EXPECT_THROW(node.runSource("(defarray a (4) :int)"
                                "(defun main () (aref a 9))",
                                core::SimMode::Seq),
                 CompileError);
}

TEST(MalformedInput, NumberOverflowIsRangeChecked)
{
    core::CoupledNode node(config::baseline());
    try {
        node.runSource("(defvar x 123456789012345678901234567890)"
                       "(defun main () 0)",
                       core::SimMode::Coupled);
        FAIL() << "expected CompileError";
    } catch (const CompileError& e) {
        EXPECT_NE(std::string(e.what()).find("out of range"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace procoup
