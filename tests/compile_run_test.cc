/** @file End-to-end tests: PCL source through the full compiler onto
 *  the simulator, checking computed results and schedule sanity in
 *  both scheduling modes. */

#include <gtest/gtest.h>

#include "procoup/config/presets.hh"
#include "procoup/sched/compiler.hh"
#include "procoup/sim/simulator.hh"
#include "procoup/support/error.hh"

namespace procoup {
namespace {

using sched::CompileOptions;
using sched::CompileResult;
using sched::ScheduleMode;
using sim::Simulator;

struct RunOutcome
{
    CompileResult compiled;
    sim::RunStats stats;
    std::vector<double> memory;  ///< full data segment as doubles

    double
    at(const std::string& sym, std::uint32_t off = 0) const
    {
        return memory.at(compiled.program.symbol(sym).base + off);
    }
};

RunOutcome
compileAndRun(const std::string& src, ScheduleMode mode,
              const config::MachineConfig& machine = config::baseline())
{
    CompileOptions opts;
    opts.mode = mode;
    RunOutcome out{sched::compile(src, machine, opts), {}, {}};
    Simulator sim(machine, out.compiled.program);
    out.stats = sim.run();
    for (std::uint32_t a = 0; a < out.compiled.program.memorySize; ++a)
        out.memory.push_back(sim.memory().peek(a).asFloat());
    return out;
}

class BothModes : public ::testing::TestWithParam<ScheduleMode> {};

INSTANTIATE_TEST_SUITE_P(
    Modes, BothModes,
    ::testing::Values(ScheduleMode::Single, ScheduleMode::Unrestricted),
    [](const ::testing::TestParamInfo<ScheduleMode>& info) {
        return info.param == ScheduleMode::Single ? "Single"
                                                  : "Unrestricted";
    });

TEST_P(BothModes, StraightLineArithmetic)
{
    const auto out = compileAndRun(
        "(defvar r1 0)"
        "(defvar r2 0.0)"
        "(defun main ()"
        "  (let ((a 6) (b 7))"
        "    (set r1 (+ (* a b) (- b a)))"
        "    (set r2 (/ (float (* a b)) 4.0))))",
        GetParam());
    EXPECT_EQ(out.at("r1"), 43.0);
    EXPECT_DOUBLE_EQ(out.at("r2"), 10.5);
}

TEST_P(BothModes, CseKeepsNearlyEqualFloatConstantsApart)
{
    // 0.1234568 and 0.1234567 agree in six significant digits; the
    // two products are different expressions and must not be merged.
    const auto out = compileAndRun(
        "(defarray x (1) :init-each 3.0)"
        "(defvar d 0.0)"
        "(defun main ()"
        "  (let ((v (aref x 0)))"
        "    (set d (* 1000000.0"
        "              (- (* v 0.1234568) (* v 0.1234567))))))",
        GetParam());
    EXPECT_NEAR(out.at("d"), 0.3, 1e-6);
}

TEST_P(BothModes, LoopAccumulation)
{
    const auto out = compileAndRun(
        "(defvar sum 0)"
        "(defvar fsum 0.0)"
        "(defun main ()"
        "  (let ((s 0) (f 0.0))"
        "    (for (i 0 20)"
        "      (set s (+ s i))"
        "      (set f (+ f 0.5)))"
        "    (set sum s)"
        "    (set fsum f)))",
        GetParam());
    EXPECT_EQ(out.at("sum"), 190.0);
    EXPECT_DOUBLE_EQ(out.at("fsum"), 10.0);
}

TEST_P(BothModes, SmallMatrixMultiply)
{
    // 3x3 matmul with runtime loops; checked against a C++ reference.
    const auto out = compileAndRun(
        "(defarray a (3 3) :init-each (+ (* 2.0 r) c))"
        "(defarray b (3 3) :init-each (- (* 1.5 c) r))"
        "(defarray c (3 3))"
        "(defun main ()"
        "  (for (i 0 3) (for (j 0 3)"
        "    (let ((s 0.0))"
        "      (for (k 0 3)"
        "        (set s (+ s (* (aref a i k) (aref b k j)))))"
        "      (aset c i j s)))))",
        GetParam());

    double A[3][3];
    double B[3][3];
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c) {
            A[r][c] = 2.0 * r + c;
            B[r][c] = 1.5 * c - r;
        }
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j) {
            double s = 0.0;
            for (int k = 0; k < 3; ++k)
                s += A[i][k] * B[k][j];
            EXPECT_DOUBLE_EQ(out.at("c", 3 * i + j), s)
                << "c[" << i << "][" << j << "]";
        }
}

TEST_P(BothModes, UnrolledMatchesRolled)
{
    const char* rolled =
        "(defarray v (6) :init-each (* 1.0 i))"
        "(defvar dot 0.0)"
        "(defun main ()"
        "  (let ((s 0.0))"
        "    (for (i 0 6) (set s (+ s (* (aref v i) (aref v i)))))"
        "    (set dot s)))";
    const char* unrolled =
        "(defarray v (6) :init-each (* 1.0 i))"
        "(defvar dot 0.0)"
        "(defun main ()"
        "  (let ((s 0.0))"
        "    (for (i 0 6 :unroll)"
        "      (set s (+ s (* (aref v i) (aref v i)))))"
        "    (set dot s)))";
    const auto r = compileAndRun(rolled, GetParam());
    const auto u = compileAndRun(unrolled, GetParam());
    EXPECT_DOUBLE_EQ(r.at("dot"), 55.0);
    EXPECT_DOUBLE_EQ(u.at("dot"), 55.0);
    // Unrolling must help (fewer cycles): no loop overhead.
    EXPECT_LT(u.stats.cycles, r.stats.cycles);
}

TEST_P(BothModes, PartialUnrollMatchesRolled)
{
    // :unroll 4 with a runtime bound (and a trip count that is not a
    // multiple of the factor, exercising the cleanup loop).
    const char* src =
        "(defarray v (14) :init-each (* 1.0 i))"
        "(defvar n 14)"
        "(defvar dot 0.0)"
        "(defun main ()"
        "  (let ((s 0.0) (lim n))"
        "    (for (i 0 lim :unroll 4)"
        "      (set s (+ s (* (aref v i) (aref v i)))))"
        "    (set dot s)))";
    const auto r = compileAndRun(src, GetParam());
    double expect = 0.0;
    for (int i = 0; i < 14; ++i)
        expect += 1.0 * i * i;
    EXPECT_DOUBLE_EQ(r.at("dot"), expect);
}

TEST(CompileRun, PartialUnrollReducesCycles)
{
    auto run = [](const std::string& opt) {
        return compileAndRun(
            "(defarray v (64) :init-each (* 0.5 i))"
            "(defvar dot 0.0)"
            "(defun main ()"
            "  (let ((s 0.0))"
            "    (for (i 0 64" + opt + ")"
            "      (set s (+ s (aref v i))))"
            "    (set dot s)))",
            ScheduleMode::Unrestricted);
    };
    const auto rolled = run("");
    const auto partial = run(" :unroll 4");
    EXPECT_DOUBLE_EQ(rolled.at("dot"), partial.at("dot"));
    EXPECT_LT(partial.stats.cycles, rolled.stats.cycles);
}

TEST_P(BothModes, IfControl)
{
    const auto out = compileAndRun(
        "(defvar lo 0)"
        "(defvar hi 0)"
        "(defun clamp (x) (if (> x 10) 10 x))"
        "(defun main ()"
        "  (set lo (clamp 3))"
        "  (set hi (clamp 30)))",
        GetParam());
    EXPECT_EQ(out.at("lo"), 3.0);
    EXPECT_EQ(out.at("hi"), 10.0);
}

TEST_P(BothModes, DataDependentLoop)
{
    // Collatz-ish iteration count: genuinely data dependent.
    const auto out = compileAndRun(
        "(defvar steps 0)"
        "(defun main ()"
        "  (let ((n 27) (count 0))"
        "    (while (!= n 1)"
        "      (if (= (mod n 2) 0)"
        "          (set n (/ n 2))"
        "          (set n (+ (* 3 n) 1)))"
        "      (set count (+ count 1)))"
        "    (set steps count)))",
        GetParam());
    EXPECT_EQ(out.at("steps"), 111.0);
}

TEST_P(BothModes, ForallFillsArrayAndJoins)
{
    const auto out = compileAndRun(
        "(defarray a (16))"
        "(defvar done 0)"
        "(defun main ()"
        "  (forall (i 0 16) (aset a i (* 2.0 (float i))))"
        "  (set done 1))",
        GetParam());
    for (int i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(out.at("a", i), 2.0 * i) << i;
    EXPECT_EQ(out.at("done"), 1.0);
    // 16 children + main.
    EXPECT_EQ(out.stats.threadsSpawned, 17u);
}

TEST_P(BothModes, ForallWithCapturedVariable)
{
    const auto out = compileAndRun(
        "(defarray a (4 8))"
        "(defun main ()"
        "  (for (k 0 4)"
        "    (forall (i 0 8) (aset a k i (+ (* 10.0 k) i)))))",
        GetParam());
    for (int k = 0; k < 4; ++k)
        for (int i = 0; i < 8; ++i)
            EXPECT_DOUBLE_EQ(out.at("a", 8 * k + i), 10.0 * k + i);
}

TEST_P(BothModes, NestedSequentialForalls)
{
    const auto out = compileAndRun(
        "(defarray a (8))"
        "(defvar total 0.0)"
        "(defun main ()"
        "  (forall (i 0 8) (aset a i (float i)))"
        "  (let ((s 0.0))"
        "    (for (i 0 8) (set s (+ s (aref a i))))"
        "    (set total s))"
        "  (forall (i 0 8) (aset a i 0.0)))",
        GetParam());
    EXPECT_DOUBLE_EQ(out.at("total"), 28.0);
    for (int i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(out.at("a", i), 0.0);
}

TEST_P(BothModes, ProducerConsumerThroughPresenceBits)
{
    const auto out = compileAndRun(
        "(defarray cell (1) :int :empty)"
        "(defvar got 0)"
        "(defun producer (x) (put cell 0 (* x 3)))"
        "(defun main ()"
        "  (fork (producer 14))"
        "  (set got (take cell 0)))",
        GetParam());
    EXPECT_EQ(out.at("got"), 42.0);
    EXPECT_GE(out.stats.memParked, 0u);
}

TEST_P(BothModes, MarkInstrumentation)
{
    const auto out = compileAndRun(
        "(defun main ()"
        "  (for (i 0 3) (mark 5)))",
        GetParam());
    EXPECT_EQ(out.stats.markCycles(0, 5).size(), 3u);
}

TEST(CompileRun, ScheduleDiagnosticsPopulated)
{
    CompileOptions opts;
    opts.mode = ScheduleMode::Unrestricted;
    const auto machine = config::baseline();
    const auto result = sched::compile(
        "(defvar out 0)"
        "(defun main ()"
        "  (let ((s 0))"
        "    (for (i 0 10) (set s (+ s i)))"
        "    (set out s)))",
        machine, opts);
    ASSERT_EQ(result.funcInfo.size(), 1u);
    const auto& fi = result.funcInfo[0];
    EXPECT_EQ(fi.name, "main");
    EXPECT_GT(fi.totalRows, 0);
    EXPECT_GT(fi.totalOps, 0);
    EXPECT_GT(result.peakRegistersPerCluster(), 0u);
    EXPECT_EQ(fi.blockRows.size(), static_cast<std::size_t>(4));
}

TEST(CompileRun, SingleModeUsesOneArithCluster)
{
    CompileOptions opts;
    opts.mode = ScheduleMode::Single;
    const auto machine = config::baseline();
    const auto result = sched::compile(
        "(defvar out 0.0)"
        "(defun main ()"
        "  (let ((s 0.0))"
        "    (for (i 0 5) (set s (+ s (float i))))"
        "    (set out s)))",
        machine, opts);
    // All non-branch ops in cluster 0 (clone 0 of main).
    std::set<int> clusters_used;
    for (const auto& inst : result.program.threads[0].instructions)
        for (const auto& slot : inst.slots)
            if (machine.fuConfig(slot.fu).type != isa::UnitType::Branch)
                clusters_used.insert(machine.fuCluster(slot.fu));
    EXPECT_EQ(clusters_used, (std::set<int>{0}));
}

TEST(CompileRun, UnrestrictedModeSpreadsWork)
{
    CompileOptions opts;
    opts.mode = ScheduleMode::Unrestricted;
    const auto machine = config::baseline();
    // Eight independent chains: plenty of ILP to spread.
    std::string src = "(defarray out (8))(defun main () ";
    for (int k = 0; k < 8; ++k)
        src += "(aset out " + std::to_string(k) + " (* (+ 1.0 " +
               std::to_string(k) + ".0) 2.0))";
    src += ")";
    const auto result = sched::compile(src, machine, opts);
    std::set<int> clusters_used;
    for (const auto& inst : result.program.threads[0].instructions)
        for (const auto& slot : inst.slots)
            if (machine.fuConfig(slot.fu).type != isa::UnitType::Branch)
                clusters_used.insert(machine.fuCluster(slot.fu));
    EXPECT_GE(clusters_used.size(), 2u);
}

TEST(CompileRun, UnrestrictedNoSlowerThanSingle)
{
    // With a single thread, using all clusters should never lose by
    // much, and should win when there is parallelism.
    const char* src =
        "(defarray a (8) :init-each (* 1.0 i))"
        "(defarray b (8))"
        "(defun main ()"
        "  (for (i 0 8 :unroll)"
        "    (aset b i (* (aref a i) (aref a i)))))";
    const auto seq = compileAndRun(src, ScheduleMode::Single);
    const auto sts = compileAndRun(src, ScheduleMode::Unrestricted);
    for (int i = 0; i < 8; ++i) {
        EXPECT_DOUBLE_EQ(seq.at("b", i), 1.0 * i * i);
        EXPECT_DOUBLE_EQ(sts.at("b", i), 1.0 * i * i);
    }
    EXPECT_LT(sts.stats.cycles, seq.stats.cycles);
}

TEST(CompileRun, CloneRotationSpreadsThreads)
{
    // In Single mode, forall children must land on different clusters
    // (thread-per-element load balancing).
    CompileOptions opts;
    opts.mode = ScheduleMode::Single;
    const auto machine = config::baseline();
    const auto result = sched::compile(
        "(defarray a (8))"
        "(defun main () (forall (i 0 8) (aset a i 1.0)))",
        machine, opts);

    std::set<int> child_clusters;
    for (const auto& t : result.program.threads) {
        if (t.name.rfind("forall", 0) != 0)
            continue;
        for (const auto& inst : t.instructions)
            for (const auto& slot : inst.slots)
                if (machine.fuConfig(slot.fu).type ==
                        isa::UnitType::Memory)
                    child_clusters.insert(machine.fuCluster(slot.fu));
    }
    EXPECT_EQ(child_clusters.size(), 4u);
}

TEST(CompileRun, ValidatorAcceptsAllCompiledPrograms)
{
    // compile() validates internally; a throw here is a compiler bug.
    const char* programs[] = {
        "(defun main () 0)",
        "(defvar x 0)(defun main () (set x 1))",
        "(defarray a (4 4))(defun main ()"
        "  (for (i 0 4) (for (j 0 4) (aset a i j (float (+ i j))))))",
        "(defarray a (4))(defun main () (forall (i 0 4)"
        "  (aset a i (float i))))",
    };
    for (const char* p : programs) {
        SCOPED_TRACE(p);
        for (auto mode :
             {ScheduleMode::Single, ScheduleMode::Unrestricted}) {
            CompileOptions opts;
            opts.mode = mode;
            EXPECT_NO_THROW(sched::compile(p, config::baseline(), opts));
        }
    }
}

} // namespace
} // namespace procoup
