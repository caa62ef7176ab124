/** @file Unit tests for the ISA module and program validation. */

#include <gtest/gtest.h>

#include "procoup/support/error.hh"
#include "procoup/config/parse.hh"
#include "procoup/config/presets.hh"
#include "procoup/config/validate.hh"
#include "procoup/isa/builder.hh"
#include "procoup/isa/opcode.hh"
#include "procoup/isa/program.hh"
#include "procoup/isa/value.hh"
#include "test_util.hh"

namespace procoup {
namespace {

using namespace isa;
using testutil::rr;

TEST(Value, TagsAndConversions)
{
    const Value i = Value::makeInt(-3);
    const Value f = Value::makeFloat(2.5);
    EXPECT_FALSE(i.isFloat());
    EXPECT_TRUE(f.isFloat());
    EXPECT_EQ(i.asInt(), -3);
    EXPECT_DOUBLE_EQ(i.asFloat(), -3.0);
    EXPECT_EQ(f.asInt(), 2);
    EXPECT_DOUBLE_EQ(f.asFloat(), 2.5);
}

TEST(Value, Truthiness)
{
    EXPECT_FALSE(Value::makeInt(0).truthy());
    EXPECT_TRUE(Value::makeInt(-1).truthy());
    EXPECT_FALSE(Value::makeFloat(0.0).truthy());
    EXPECT_TRUE(Value::makeFloat(0.1).truthy());
}

TEST(Value, Equality)
{
    EXPECT_EQ(Value::makeInt(5), Value::makeInt(5));
    EXPECT_FALSE(Value::makeInt(5) == Value::makeFloat(5.0));
}

// --- Opcode classification -----------------------------------------

struct OpcodeUnitCase
{
    Opcode op;
    UnitType unit;
};

class OpcodeUnitTest : public ::testing::TestWithParam<OpcodeUnitCase> {};

TEST_P(OpcodeUnitTest, ExecutesOnExpectedUnit)
{
    EXPECT_EQ(unitTypeOf(GetParam().op), GetParam().unit);
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, OpcodeUnitTest,
    ::testing::Values(
        OpcodeUnitCase{Opcode::IADD, UnitType::Integer},
        OpcodeUnitCase{Opcode::IMUL, UnitType::Integer},
        OpcodeUnitCase{Opcode::ILT, UnitType::Integer},
        OpcodeUnitCase{Opcode::MOV, UnitType::Integer},
        OpcodeUnitCase{Opcode::MARK, UnitType::Integer},
        OpcodeUnitCase{Opcode::FADD, UnitType::Float},
        OpcodeUnitCase{Opcode::FDIV, UnitType::Float},
        OpcodeUnitCase{Opcode::ITOF, UnitType::Float},
        OpcodeUnitCase{Opcode::FMOV, UnitType::Float},
        OpcodeUnitCase{Opcode::FGE, UnitType::Float},
        OpcodeUnitCase{Opcode::LD, UnitType::Memory},
        OpcodeUnitCase{Opcode::ST, UnitType::Memory},
        OpcodeUnitCase{Opcode::BR, UnitType::Branch},
        OpcodeUnitCase{Opcode::BT, UnitType::Branch},
        OpcodeUnitCase{Opcode::FORK, UnitType::Branch},
        OpcodeUnitCase{Opcode::ETHR, UnitType::Branch}));

TEST(Opcode, SourceArities)
{
    EXPECT_EQ(opcodeNumSources(Opcode::IADD), 2);
    EXPECT_EQ(opcodeNumSources(Opcode::MOV), 1);
    EXPECT_EQ(opcodeNumSources(Opcode::ST), 3);
    EXPECT_EQ(opcodeNumSources(Opcode::LD), 2);
    EXPECT_EQ(opcodeNumSources(Opcode::BR), 0);
    EXPECT_EQ(opcodeNumSources(Opcode::FORK), -1);
}

TEST(Opcode, RegisterWritingClassification)
{
    EXPECT_TRUE(opcodeWritesRegister(Opcode::IADD));
    EXPECT_TRUE(opcodeWritesRegister(Opcode::LD));
    EXPECT_FALSE(opcodeWritesRegister(Opcode::ST));
    EXPECT_FALSE(opcodeWritesRegister(Opcode::BR));
    EXPECT_FALSE(opcodeWritesRegister(Opcode::ETHR));
    EXPECT_FALSE(opcodeWritesRegister(Opcode::MARK));
}

TEST(MemFlavorTest, TableOneFlavors)
{
    EXPECT_EQ(MemFlavor::plainLoad().pre, MemPre::None);
    EXPECT_EQ(MemFlavor::plainLoad().post, MemPost::Leave);
    EXPECT_EQ(MemFlavor::consumeLoad().pre, MemPre::Full);
    EXPECT_EQ(MemFlavor::consumeLoad().post, MemPost::SetEmpty);
    EXPECT_EQ(MemFlavor::plainStore().post, MemPost::SetFull);
    EXPECT_EQ(MemFlavor::produceStore().pre, MemPre::Empty);
}

TEST(OperationPrint, ReadableForm)
{
    Operation o = op::alu(Opcode::IADD, rr(0, 2), op::reg(rr(0, 0)),
                          op::imm(7));
    const std::string s = o.toString();
    EXPECT_NE(s.find("iadd"), std::string::npos);
    EXPECT_NE(s.find("c0.r2"), std::string::npos);
    EXPECT_NE(s.find("#7"), std::string::npos);
}

// --- Builder and validation ----------------------------------------

TEST(Builder, DataSegmentLayout)
{
    ProgramBuilder pb(6);
    const auto a = pb.data("a", 10);
    const auto b = pb.data("b", 5);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 10u);
    auto t = pb.thread("main", {1});
    t.rowOp(testutil::fuBR0(), op::ethr());
    const Program p = pb.finish(0);
    EXPECT_EQ(p.memorySize, 15u);
    EXPECT_EQ(p.symbol("b").base, 10u);
    EXPECT_EQ(p.symbol("b").size, 5u);
    EXPECT_THROW(p.symbol("missing"), CompileError);
}

TEST(Builder, MultipleThreadsStayValidAfterRealloc)
{
    // ThreadBuilder handles must survive further thread() calls.
    ProgramBuilder pb(6);
    auto t0 = pb.thread("a", {2});
    auto t1 = pb.thread("b", {2});
    auto t2 = pb.thread("c", {2});
    t0.rowOp(testutil::fuBR0(), op::ethr());
    t1.rowOp(testutil::fuBR0(), op::ethr());
    t2.rowOp(testutil::fuBR0(), op::ethr());
    const Program p = pb.finish(0);
    ASSERT_EQ(p.threads.size(), 3u);
    for (const auto& t : p.threads)
        EXPECT_EQ(t.instructions.size(), 1u);
}

TEST(Validate, AcceptsWellFormedProgram)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    auto t = pb.thread("main", {4});
    t.rowOp(testutil::fuIU(0),
            op::alu(Opcode::IADD, rr(0, 0), op::imm(1), op::imm(2)));
    t.rowOp(testutil::fuBR0(), op::ethr());
    const Program p = pb.finish(0);
    EXPECT_NO_THROW(config::validateProgram(p, m));
}

TEST(Validate, RejectsWrongUnitClass)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    auto t = pb.thread("main", {4});
    // Float add on an integer unit.
    t.rowOp(testutil::fuIU(0),
            op::alu(Opcode::FADD, rr(0, 0), op::fimm(1), op::fimm(2)));
    const Program p = pb.finish(0);
    EXPECT_THROW(config::validateProgram(p, m), CompileError);
}

TEST(Validate, RejectsRemoteSourceRegister)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    auto t = pb.thread("main", {4, 4});
    // IU in cluster 0 reading cluster 1's register file.
    t.rowOp(testutil::fuIU(0),
            op::alu(Opcode::IADD, rr(0, 0), op::reg(rr(1, 0)),
                    op::imm(2)));
    const Program p = pb.finish(0);
    EXPECT_THROW(config::validateProgram(p, m), CompileError);
}

TEST(Validate, RejectsTwoOpsOnOneUnitInOneRow)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    auto t = pb.thread("main", {4});
    t.row();
    t.add(testutil::fuIU(0),
          op::alu(Opcode::IADD, rr(0, 0), op::imm(1), op::imm(2)));
    t.add(testutil::fuIU(0),
          op::alu(Opcode::ISUB, rr(0, 1), op::imm(1), op::imm(2)));
    const Program p = pb.finish(0);
    EXPECT_THROW(config::validateProgram(p, m), CompileError);
}

TEST(Validate, RejectsBranchTargetOutOfRange)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    auto t = pb.thread("main", {1});
    t.rowOp(testutil::fuBR0(), op::br(99));
    const Program p = pb.finish(0);
    EXPECT_THROW(config::validateProgram(p, m), CompileError);
}

TEST(Validate, RejectsRegisterBeyondFrame)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    auto t = pb.thread("main", {2});
    t.rowOp(testutil::fuIU(0),
            op::alu(Opcode::IADD, rr(0, 7), op::imm(1), op::imm(2)));
    const Program p = pb.finish(0);
    EXPECT_THROW(config::validateProgram(p, m), CompileError);
}

TEST(Validate, RejectsForkArgumentMismatch)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    auto child = pb.thread("child", {2});
    child.params({rr(0, 0), rr(0, 1)});
    child.rowOp(testutil::fuBR0(), op::ethr());
    auto main = pb.thread("main", {2});
    main.rowOp(testutil::fuBR0(), op::fork(0, {op::imm(1)}));  // 1 != 2
    main.rowOp(testutil::fuBR0(), op::ethr());
    const Program p = pb.finish(1);
    EXPECT_THROW(config::validateProgram(p, m), CompileError);
}

TEST(Validate, RejectsEntryWithParameters)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    auto t = pb.thread("main", {2});
    t.params({rr(0, 0)});
    t.rowOp(testutil::fuBR0(), op::ethr());
    const Program p = pb.finish(0);
    EXPECT_THROW(config::validateProgram(p, m), CompileError);
}

// --- Machine configuration ------------------------------------------

TEST(MachineConfig, BaselineShape)
{
    const auto m = config::baseline();
    EXPECT_EQ(m.clusters.size(), 6u);
    EXPECT_EQ(m.numFus(), 14);
    EXPECT_EQ(m.countUnits(UnitType::Integer), 4);
    EXPECT_EQ(m.countUnits(UnitType::Float), 4);
    EXPECT_EQ(m.countUnits(UnitType::Memory), 4);
    EXPECT_EQ(m.countUnits(UnitType::Branch), 2);
    EXPECT_EQ(m.arithClusters(), (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(m.branchClusters(), (std::vector<int>{4, 5}));
    EXPECT_EQ(m.fuCluster(testutil::fuMU(3)), 3);
    EXPECT_EQ(m.fuConfig(testutil::fuFPU(2)).type, UnitType::Float);

    const config::FuTable fus(m);
    EXPECT_EQ(fus.numFus(), 14);
    EXPECT_EQ(fus.cluster(testutil::fuMU(3)), 3);
    EXPECT_EQ(fus.type(testutil::fuFPU(2)), UnitType::Float);
    EXPECT_EQ(fus.unitIn(1, UnitType::Memory), testutil::fuMU(1));
    EXPECT_EQ(fus.unitIn(4, UnitType::Integer), -1);
    EXPECT_EQ(fus.maxLatency(UnitType::Float), 1);
}

TEST(MachineConfig, FuTableTakesLowestUnitAndLongestPipeline)
{
    const auto m = config::parseMachine(
        "(machine (cluster (iu 2) (iu 3) (mem)) (cluster (fpu 4)) "
        "(cluster (br)))");
    const config::FuTable fus(m);
    EXPECT_EQ(fus.unitIn(0, UnitType::Integer), 0);
    EXPECT_EQ(fus.unitIn(0, UnitType::Memory), 2);
    EXPECT_EQ(fus.unitIn(1, UnitType::Float), 3);
    EXPECT_EQ(fus.unitIn(1, UnitType::Integer), -1);
    EXPECT_EQ(fus.maxLatency(UnitType::Integer), 3);
    EXPECT_EQ(fus.maxLatency(UnitType::Float), 4);
    EXPECT_EQ(fus.maxLatency(UnitType::Memory), 1);
}

TEST(MachineConfig, MemoryPresets)
{
    const auto m1 = config::withMem1(config::baseline());
    EXPECT_DOUBLE_EQ(m1.memory.missRate, 0.05);
    const auto m2 = config::withMem2(config::baseline());
    EXPECT_DOUBLE_EQ(m2.memory.missRate, 0.10);
    EXPECT_EQ(m2.memory.missPenaltyMin, 20);
    EXPECT_EQ(m2.memory.missPenaltyMax, 100);
    const auto mn = config::withMemMin(config::baseline());
    EXPECT_DOUBLE_EQ(mn.memory.missRate, 0.0);
}

TEST(MachineConfig, FuMixShape)
{
    for (int iu = 1; iu <= 4; ++iu) {
        for (int fpu = 1; fpu <= 4; ++fpu) {
            const auto m = config::fuMix(iu, fpu);
            EXPECT_EQ(m.countUnits(UnitType::Integer), iu);
            EXPECT_EQ(m.countUnits(UnitType::Float), fpu);
            EXPECT_EQ(m.countUnits(UnitType::Memory), 4);
            EXPECT_EQ(m.countUnits(UnitType::Branch), 1);
        }
    }
}

} // namespace
} // namespace procoup
