/** @file Unit tests for the static scheduler: schedule validity
 *  invariants, placement behaviour, copy insertion, and the
 *  fallthrough-branch peephole. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "procoup/config/presets.hh"
#include "procoup/config/validate.hh"
#include "procoup/exp/serialize.hh"
#include "procoup/gen/generator.hh"
#include "procoup/ir/frontend.hh"
#include "procoup/opt/passes.hh"
#include "procoup/sched/compiler.hh"
#include "procoup/sched/scheduler.hh"
#include "procoup/sim/simulator.hh"
#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/core/node.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace {

using sched::CompileOptions;
using sched::ScheduleMode;

/**
 * Structural invariants every emitted schedule must satisfy (beyond
 * what validateProgram already enforces):
 *  - a true dependence never has producer and consumer in the same
 *    row (the consumer would read a stale value);
 *  - every register read in a row was written by an earlier row, a
 *    FORK parameter, or is never written at all (constant zero).
 */
void
checkScheduleInvariants(const isa::Program& prog,
                        const config::MachineConfig& machine)
{
    config::validateProgram(prog, machine);
    for (const auto& t : prog.threads) {
        // (cluster, reg) -> first row writing it.
        std::map<std::pair<int, int>, std::size_t> first_write;
        for (std::size_t row = 0; row < t.instructions.size(); ++row)
            for (const auto& slot : t.instructions[row].slots)
                for (const auto& d : slot.op.dsts) {
                    auto key = std::make_pair<int, int>(d.cluster,
                                                        d.index);
                    if (!first_write.count(key))
                        first_write[key] = row;
                }

        for (std::size_t row = 0; row < t.instructions.size(); ++row) {
            std::set<std::pair<int, int>> written_this_row;
            for (const auto& slot : t.instructions[row].slots)
                for (const auto& d : slot.op.dsts)
                    written_this_row.insert({d.cluster, d.index});

            for (const auto& slot : t.instructions[row].slots) {
                for (const auto& s : slot.op.srcs) {
                    if (!s.isReg())
                        continue;
                    const auto key = std::make_pair<int, int>(
                        s.reg().cluster, s.reg().index);
                    // Reading a value written first in THIS row is a
                    // same-row true dependence unless the reg is also
                    // a legitimate WAR (write-after-read) — allowed
                    // only if some EARLIER row or a param wrote it.
                    auto it = first_write.find(key);
                    const bool param =
                        std::find(t.paramHomes.begin(),
                                  t.paramHomes.end(),
                                  s.reg()) != t.paramHomes.end();
                    if (it != first_write.end() && it->second == row &&
                            !param) {
                        // Must be a WAR in the same row; a true dep
                        // would mean no earlier write exists at all.
                        ADD_FAILURE()
                            << "thread " << t.name << " row " << row
                            << ": reads " << s.reg().toString()
                            << " first written in the same row";
                    }
                }
            }
        }
    }
}

isa::Program
compileFor(const std::string& src, ScheduleMode mode,
           const config::MachineConfig& machine)
{
    CompileOptions opts;
    opts.mode = mode;
    return sched::compile(src, machine, opts).program;
}

const char* kLoopy =
    "(defarray a (16) :init-each (* 1.0 i))"
    "(defvar out 0.0)"
    "(defun main ()"
    "  (let ((s 0.0))"
    "    (for (i 0 16)"
    "      (if (> (aref a i) 7.0)"
    "          (set s (+ s (aref a i)))"
    "          (set s (- s 0.5))))"
    "    (set out s)))";

const char* kParallel =
    "(defarray a (8) :init-each (* 1.0 i))"
    "(defarray b (8))"
    "(defun main ()"
    "  (for (i 0 8 :unroll)"
    "    (aset b i (+ (* (aref a i) 2.0) 1.0))))";

const char* kThreaded =
    "(defarray a (12))"
    "(defun main () (forall (i 0 12) (aset a i (float (* i i)))))";

class ScheduleInvariants
    : public ::testing::TestWithParam<ScheduleMode>
{};

INSTANTIATE_TEST_SUITE_P(
    Modes, ScheduleInvariants,
    ::testing::Values(ScheduleMode::Single, ScheduleMode::Unrestricted),
    [](const ::testing::TestParamInfo<ScheduleMode>& i) {
        return i.param == ScheduleMode::Single ? "Single"
                                               : "Unrestricted";
    });

TEST_P(ScheduleInvariants, HoldOnRepresentativePrograms)
{
    const auto machine = config::baseline();
    for (const char* src : {kLoopy, kParallel, kThreaded}) {
        SCOPED_TRACE(src);
        checkScheduleInvariants(compileFor(src, GetParam(), machine),
                                machine);
    }
}

TEST_P(ScheduleInvariants, HoldOnUnitMixMachines)
{
    for (int iu = 1; iu <= 4; iu += 3)
        for (int fpu = 1; fpu <= 4; fpu += 3) {
            const auto machine = config::fuMix(iu, fpu);
            SCOPED_TRACE(machine.name);
            checkScheduleInvariants(
                compileFor(kLoopy, GetParam(), machine), machine);
            checkScheduleInvariants(
                compileFor(kThreaded, GetParam(), machine), machine);
        }
}

TEST(Scheduler, BranchIsAlwaysInTheLastRowOfItsBlock)
{
    // After target patching, a conditional branch row must be the last
    // chance for its block: every row reachable after it must be a
    // branch target or the row right after it. Weaker observable
    // check: BT/BF ops never precede non-branch ops of the same block
    // in a way that strands them — covered by execution tests; here
    // we check the terminator rows contain the control op.
    const auto machine = config::baseline();
    const auto prog =
        compileFor(kLoopy, ScheduleMode::Unrestricted, machine);
    // Any row containing BT/BF must have no ops in later rows that
    // are unreachable: execution equivalence is tested elsewhere;
    // structurally we require each BT/BF to be in some row whose
    // successor row is a valid fall-through (target of nothing odd).
    for (const auto& t : prog.threads)
        for (const auto& inst : t.instructions)
            for (const auto& slot : inst.slots)
                if (isa::opcodeIsBranch(slot.op.opcode)) {
                    EXPECT_LT(slot.op.branchTarget,
                              t.instructions.size());
                }
}

TEST(Scheduler, SingleModeKeepsArithOpsInOneCluster)
{
    const auto machine = config::baseline();
    const auto prog =
        compileFor(kLoopy, ScheduleMode::Single, machine);
    std::set<int> clusters;
    for (const auto& inst : prog.threads[0].instructions)
        for (const auto& slot : inst.slots)
            if (machine.fuConfig(slot.fu).type !=
                    isa::UnitType::Branch)
                clusters.insert(machine.fuCluster(slot.fu));
    EXPECT_EQ(clusters.size(), 1u);
}

TEST(Scheduler, UnrestrictedUsesMultipleClustersWhenParallel)
{
    const auto machine = config::baseline();
    const auto prog =
        compileFor(kParallel, ScheduleMode::Unrestricted, machine);
    std::set<int> clusters;
    for (const auto& inst : prog.threads[0].instructions)
        for (const auto& slot : inst.slots)
            if (machine.fuConfig(slot.fu).type !=
                    isa::UnitType::Branch)
                clusters.insert(machine.fuCluster(slot.fu));
    EXPECT_GE(clusters.size(), 3u);
}

TEST(Scheduler, CloneRotationChangesClusterOrders)
{
    // In Unrestricted mode, forall clones get rotated cluster orders;
    // their first arithmetic op should not all land on cluster 0.
    CompileOptions opts;
    opts.mode = ScheduleMode::Unrestricted;
    const auto machine = config::baseline();
    const auto result = sched::compile(kThreaded, machine, opts);
    std::set<int> first_clusters;
    for (const auto& t : result.program.threads) {
        if (t.name.rfind("forall", 0) != 0)
            continue;
        for (const auto& inst : t.instructions) {
            bool found = false;
            for (const auto& slot : inst.slots)
                if (machine.fuConfig(slot.fu).type !=
                        isa::UnitType::Branch) {
                    first_clusters.insert(
                        machine.fuCluster(slot.fu));
                    found = true;
                    break;
                }
            if (found)
                break;
        }
    }
    EXPECT_GE(first_clusters.size(), 2u);
}

TEST(Scheduler, NoFallthroughBranchesRemain)
{
    const auto machine = config::baseline();
    for (auto mode :
         {ScheduleMode::Single, ScheduleMode::Unrestricted}) {
        const auto prog = compileFor(kLoopy, mode, machine);
        for (const auto& t : prog.threads)
            for (std::size_t row = 0; row < t.instructions.size();
                 ++row)
                for (const auto& slot : t.instructions[row].slots)
                    if (slot.op.opcode == isa::Opcode::BR) {
                        EXPECT_NE(slot.op.branchTarget, row + 1)
                            << "fallthrough BR survived in row "
                            << row;
                    }
    }
}

TEST(Scheduler, ReportsCopiesWhenValuesHaveManyConsumers)
{
    // One value consumed by many clusters: two consumers ride the
    // producer's destination slots; the rest need MOVs.
    CompileOptions opts;
    opts.mode = ScheduleMode::Unrestricted;
    const auto machine = config::baseline();
    const auto result = sched::compile(
        "(defarray v (1) :init-each 3.0)"
        "(defarray out (8))"
        "(defun main ()"
        "  (let ((x (aref v 0)))"
        "    (for (k 0 8 :unroll)"
        "      (aset out k (* x (float (+ k 1)))))))",
        machine, opts);
    int total_copies = 0;
    for (const auto& fi : result.funcInfo)
        total_copies += fi.copiesInserted;
    EXPECT_GE(total_copies, 1);
}

TEST(Scheduler, DeepPipelinesSpreadDependentRows)
{
    // With a 4-cycle FPU, a dependent FP chain's schedule must place
    // consumers at least 4 rows after producers... rows encode order,
    // not time, so instead check the dynamic effect: the chain takes
    // ~4 cycles per link.
    auto machine = config::baseline();
    for (auto& cluster : machine.clusters)
        for (auto& u : cluster.units)
            if (u.type == isa::UnitType::Float)
                u.latency = 4;

    CompileOptions opts;
    opts.mode = ScheduleMode::Unrestricted;
    const auto result = sched::compile(
        "(defarray seed (1) :init-each 1.5)"
        "(defvar out 0.0)"
        "(defun main ()"
        "  (let ((x (aref seed 0)))"
        "    (for (k 0 10 :unroll) (set x (* x 1.01)))"
        "    (set out x)))",
        machine, opts);

    sim::Simulator s(machine, result.program);
    const auto stats = s.run();
    EXPECT_GE(stats.cycles, 40u);  // 10 links x 4 cycles
    EXPECT_LE(stats.cycles, 55u);
}

TEST(Scheduler, ParamHomesMatchForkArity)
{
    CompileOptions opts;
    opts.mode = ScheduleMode::Unrestricted;
    const auto machine = config::baseline();
    const auto result = sched::compile(
        "(defarray out (4))"
        "(defun child (a b) (aset out a (float b)))"
        "(defun main () (fork (child 1 7)))",
        machine, opts);
    int children = 0;
    for (const auto& t : result.program.threads) {
        if (t.name.rfind("child", 0) != 0)
            continue;
        ++children;
        EXPECT_EQ(t.paramHomes.size(), 2u);
        // Homes must be within the declared frames.
        for (const auto& p : t.paramHomes)
            EXPECT_LT(p.index, t.regCount[p.cluster]);
    }
    EXPECT_EQ(children, 4);  // one clone per arithmetic cluster

    sim::Simulator s(machine, result.program);
    s.run();
    EXPECT_DOUBLE_EQ(s.memory().peek(
        result.program.symbol("out").base + 1).asFloat(), 7.0);
}

TEST(Scheduler, InvariantsHoldAcrossTheFullBenchmarkMatrix)
{
    // Sweep: every benchmark x every applicable mode x three machine
    // shapes. Anything the list scheduler emits must satisfy the
    // structural invariants (validated program, no same-row true
    // dependences).
    const std::vector<config::MachineConfig> machines = {
        config::baseline(),
        config::fuMix(2, 1),
        config::withInterconnect(config::baseline(),
                                 config::InterconnectScheme::TriPort),
    };
    for (const auto& machine : machines) {
        for (const auto& b : benchmarks::all()) {
            for (auto mode : core::allSimModes()) {
                if (mode == core::SimMode::Ideal && !b.hasIdeal())
                    continue;
                SCOPED_TRACE(machine.name + "/" + b.name + "/" +
                             core::simModeName(mode));
                sched::CompileOptions opts = core::optionsFor(mode);
                const auto result = sched::compile(
                    b.forMode(mode), machine, opts);
                checkScheduleInvariants(result.program, machine);
            }
        }
    }
}

/**
 * Compile bytes are pinned: fnv1a64 of the serialized CompileResult
 * for every benchmark x mode on four machine shapes, the pass corpus
 * and generated programs must match tests/golden/compile_digests.txt.
 * A compiler change that is meant to alter output regenerates it with
 *
 *     PROCOUP_UPDATE_GOLDEN=1 ./sched_test --gtest_filter='CompileBytes.*'
 *
 * and the diff is reviewed like any other golden update.
 */
const char* const kCompileDigestsPath =
    PROCOUP_SOURCE_DIR "/tests/golden/compile_digests.txt";

std::string
compileDigest(const std::string& source,
              const config::MachineConfig& machine, core::SimMode mode)
{
    exp::ByteWriter w;
    exp::writeCompileResult(
        w, sched::compile(source, machine, core::optionsFor(mode)));
    return exp::fnv1a64Hex(w.bytes());
}

std::string
modeLabel(core::SimMode mode)
{
    std::string name = core::simModeName(mode);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return name;
}

/** Integer and float units with three-cycle pipelines. */
config::MachineConfig
deepAluMachine()
{
    config::MachineConfig m = config::baseline();
    m.name = "lat3";
    for (auto& c : m.clusters)
        for (auto& u : c.units)
            if (u.type == isa::UnitType::Integer ||
                    u.type == isa::UnitType::Float)
                u.latency = 3;
    return m;
}

/** Every pinned (label, digest) pair, in a fixed order. */
std::vector<std::pair<std::string, std::string>>
compileDigests()
{
    std::vector<std::pair<std::string, std::string>> out;
    const std::vector<config::MachineConfig> machines = {
        config::baseline(), config::fuMix(1, 1), config::fuMix(2, 3),
        deepAluMachine()};
    for (const auto& machine : machines)
        for (const auto& b : benchmarks::all())
            for (auto mode : core::allSimModes()) {
                if (mode == core::SimMode::Ideal && !b.hasIdeal())
                    continue;
                out.emplace_back(
                    strCat(machine.name, "/", b.name, "/",
                           modeLabel(mode)),
                    compileDigest(b.forMode(mode), machine, mode));
            }

    namespace fs = std::filesystem;
    std::vector<fs::path> corpus;
    for (const auto& e : fs::directory_iterator(
             fs::path(PROCOUP_SOURCE_DIR) / "tests" / "corpus"))
        if (e.path().filename().string().rfind("pass-", 0) == 0)
            corpus.push_back(e.path());
    std::sort(corpus.begin(), corpus.end());
    for (const auto& path : corpus) {
        std::ifstream f(path);
        std::ostringstream ss;
        ss << f.rdbuf();
        for (auto mode : {core::SimMode::Seq, core::SimMode::Sts,
                          core::SimMode::Tpe, core::SimMode::Coupled})
            out.emplace_back(strCat("corpus/", path.filename().string(),
                                    "/", modeLabel(mode)),
                             compileDigest(ss.str(), config::baseline(),
                                           mode));
    }

    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const std::string source = gen::generate(seed).source;
        for (auto mode : {core::SimMode::Coupled, core::SimMode::Tpe})
            out.emplace_back(strCat("gen/", seed, "/", modeLabel(mode)),
                             compileDigest(source, config::baseline(),
                                           mode));
    }
    return out;
}

TEST(CompileBytes, MatchCheckedInDigests)
{
    const auto digests = compileDigests();

    if (std::getenv("PROCOUP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(kCompileDigestsPath);
        ASSERT_TRUE(out) << "cannot write " << kCompileDigestsPath;
        for (const auto& [label, digest] : digests)
            out << label << " " << digest << "\n";
        GTEST_SKIP() << "golden file regenerated: "
                     << kCompileDigestsPath;
    }

    std::ifstream in(kCompileDigestsPath);
    ASSERT_TRUE(in) << "missing golden file " << kCompileDigestsPath
                    << " — regenerate with PROCOUP_UPDATE_GOLDEN=1";
    std::map<std::string, std::string> golden;
    for (std::string label, digest; in >> label >> digest;)
        golden[label] = digest;

    EXPECT_EQ(golden.size(), digests.size());
    for (const auto& [label, digest] : digests) {
        auto it = golden.find(label);
        ASSERT_NE(it, golden.end()) << "no golden digest for " << label;
        EXPECT_EQ(it->second, digest) << label;
    }
}

} // namespace
} // namespace procoup
