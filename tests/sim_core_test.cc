/** @file End-to-end simulator tests on hand-assembled programs:
 *  issue discipline, slip, arbitration priority, forking, thread
 *  synchronization through memory, and deadlock detection. */

#include <gtest/gtest.h>

#include "procoup/support/error.hh"
#include "procoup/config/presets.hh"
#include "procoup/isa/builder.hh"
#include "procoup/sim/simulator.hh"
#include "test_util.hh"

namespace procoup {
namespace {

using namespace isa;
using sim::Simulator;
using testutil::fuBR0;
using testutil::fuFPU;
using testutil::fuIU;
using testutil::fuMU;
using testutil::rr;

TEST(SimCore, AluChainComputesAndStores)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    const auto a = pb.data("a", 1);

    auto t = pb.thread("main", {4});
    t.rowOp(fuIU(0), op::alu(Opcode::IADD, rr(0, 0), op::imm(1),
                             op::imm(2)));
    t.rowOp(fuIU(0), op::alu(Opcode::IMUL, rr(0, 1), op::reg(rr(0, 0)),
                             op::imm(10)));
    t.rowOp(fuMU(0), op::st(op::imm(a), op::imm(0), op::reg(rr(0, 1))));
    t.rowOp(fuBR0(), op::ethr());

    const Program program = pb.finish(0);
    Simulator sim(m, program);
    const auto stats = sim.run();
    EXPECT_EQ(sim.memory().peek(a).asInt(), 30);
    EXPECT_EQ(stats.totalOps, 4u);
    EXPECT_EQ(stats.opsByUnit[static_cast<int>(UnitType::Integer)], 2u);
    EXPECT_EQ(stats.opsByUnit[static_cast<int>(UnitType::Memory)], 1u);
    EXPECT_EQ(stats.opsByUnit[static_cast<int>(UnitType::Branch)], 1u);
    // Dependent single-cluster chain: one row per cycle plus drain.
    EXPECT_GE(stats.cycles, 4u);
    EXPECT_LE(stats.cycles, 6u);
}

TEST(SimCore, DependentChainIssuesOnePerCycle)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    auto t = pb.thread("main", {2});
    const int n = 20;
    t.rowOp(fuIU(0), op::mov(rr(0, 0), op::imm(0)));
    for (int i = 0; i < n; ++i)
        t.rowOp(fuIU(0), op::alu(Opcode::IADD, rr(0, 0),
                                 op::reg(rr(0, 0)), op::imm(1)));
    t.rowOp(fuBR0(), op::ethr());

    const Program program = pb.finish(0);
    Simulator sim(m, program);
    const auto stats = sim.run();
    // Each dependent op issues the cycle after its producer wrote back.
    EXPECT_GE(stats.cycles, static_cast<std::uint64_t>(n + 1));
    EXPECT_LE(stats.cycles, static_cast<std::uint64_t>(n + 4));
}

TEST(SimCore, IntraInstructionSlip)
{
    // Row 1 holds an independent IU op and an FPU op that depends on a
    // slow load; the IU op must not wait for the FPU op (slip), but
    // row 2 waits for the whole of row 1.
    auto m = config::baseline();
    m.memory.hitLatency = 4;
    ProgramBuilder pb(m.clusters.size());
    const auto a = pb.data("a", 2);
    pb.init(a, Value::makeFloat(1.5));

    auto t = pb.thread("main", {4});
    t.rowOp(fuMU(0), op::ld(rr(0, 0), op::imm(a), op::imm(0)));
    t.row();
    t.add(fuIU(0), op::alu(Opcode::IADD, rr(0, 1), op::imm(2),
                           op::imm(3)));
    t.add(fuFPU(0), op::alu(Opcode::FMUL, rr(0, 2), op::reg(rr(0, 0)),
                            op::fimm(2.0)));
    t.rowOp(fuMU(0), op::st(op::imm(a), op::imm(1), op::reg(rr(0, 2))));
    t.rowOp(fuBR0(), op::ethr());

    const Program program = pb.finish(0);
    Simulator sim(m, program);
    const auto stats = sim.run();
    EXPECT_DOUBLE_EQ(sim.memory().peek(a + 1).asFloat(), 3.0);
    // The load takes 4 cycles; the FPU op issues at ~5, the store at
    // ~6. Without slip the IU op would also be delayed; slip is
    // observable as the IU op issuing in cycle 1 (checked indirectly:
    // the whole run is bounded by the load latency path, not 2x it).
    EXPECT_GE(stats.cycles, 7u);
    EXPECT_LE(stats.cycles, 10u);
}

TEST(SimCore, BranchLoopAccumulates)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    const auto out = pb.data("out", 1);

    // sum = 0; i = 0; while (i < 10) { sum += i; i += 1 }
    auto t = pb.thread("main", {4, 0, 0, 0, 2});
    t.row();
    t.add(fuIU(0), op::mov(rr(0, 0), op::imm(0)));   // sum
    t.rowOp(fuIU(0), op::mov(rr(0, 1), op::imm(0))); // i
    const auto loop = t.nextRow();
    // cond = i < 10, broadcast to the branch cluster (4).
    t.rowOp(fuIU(0), op::alu2(Opcode::ILT, rr(0, 2), rr(4, 0),
                              op::reg(rr(0, 1)), op::imm(10)));
    const auto body = t.nextRow();
    t.rowOp(fuBR0(), op::bf(op::reg(rr(4, 0)), body + 4));
    t.rowOp(fuIU(0), op::alu(Opcode::IADD, rr(0, 0), op::reg(rr(0, 0)),
                             op::reg(rr(0, 1))));
    t.rowOp(fuIU(0), op::alu(Opcode::IADD, rr(0, 1), op::reg(rr(0, 1)),
                             op::imm(1)));
    t.rowOp(fuBR0(), op::br(loop));
    t.rowOp(fuMU(0), op::st(op::imm(out), op::imm(0),
                            op::reg(rr(0, 0))));
    t.rowOp(fuBR0(), op::ethr());

    const Program program = pb.finish(0);
    Simulator sim(m, program);
    sim.run();
    EXPECT_EQ(sim.memory().peek(out).asInt(), 45);
}

TEST(SimCore, ForkPassesArgumentsAndRunsConcurrently)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    const auto out = pb.data("out", 2);

    // child(x): out[x] = x * 7
    auto child = pb.thread("child", {4});
    child.params({rr(0, 0)});
    child.rowOp(fuIU(0), op::alu(Opcode::IMUL, rr(0, 1),
                                 op::reg(rr(0, 0)), op::imm(7)));
    child.rowOp(fuMU(0), op::st(op::imm(out), op::reg(rr(0, 0)),
                                op::reg(rr(0, 1))));
    child.rowOp(fuBR0(), op::ethr());

    auto main = pb.thread("main", {2});
    main.rowOp(fuBR0(), op::fork(0, {op::imm(0)}));
    main.rowOp(fuBR0(), op::fork(0, {op::imm(1)}));
    main.rowOp(fuBR0(), op::ethr());

    const Program program = pb.finish(1);
    Simulator sim(m, program);
    const auto stats = sim.run();
    EXPECT_EQ(sim.memory().peek(out + 0).asInt(), 0);
    EXPECT_EQ(sim.memory().peek(out + 1).asInt(), 7);
    EXPECT_EQ(stats.threadsSpawned, 3u);
    EXPECT_GE(stats.peakActiveThreads, 2);
}

TEST(SimCore, SyncThroughMemoryPresenceBits)
{
    // Parent forks a producer, then blocks on a wait-full load of an
    // initially-empty flag cell; the producer fills it.
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    const auto flag = pb.data("flag", 1);
    pb.init(flag, Value::makeInt(0), /*full=*/false);

    auto producer = pb.thread("producer", {0, 4});
    // Busy work, then store the flag.
    producer.rowOp(fuIU(1), op::mov(rr(1, 0), op::imm(0)));
    for (int i = 0; i < 10; ++i)
        producer.rowOp(fuIU(1), op::alu(Opcode::IADD, rr(1, 0),
                                        op::reg(rr(1, 0)), op::imm(3)));
    producer.rowOp(fuMU(1), op::st(op::imm(flag), op::imm(0),
                                   op::reg(rr(1, 0))));
    producer.rowOp(fuBR0(), op::ethr());

    auto main = pb.thread("main", {4});
    main.rowOp(fuBR0(), op::fork(0, {}));
    main.rowOp(fuMU(0), op::ld(rr(0, 0), op::imm(flag), op::imm(0),
                               MemFlavor::waitLoad()));
    main.rowOp(fuIU(0), op::alu(Opcode::IADD, rr(0, 1),
                                op::reg(rr(0, 0)), op::imm(1)));
    main.rowOp(fuMU(0), op::st(op::imm(flag), op::imm(0),
                               op::reg(rr(0, 1))));
    main.rowOp(fuBR0(), op::ethr());

    const Program program = pb.finish(1);
    Simulator sim(m, program);
    const auto stats = sim.run();
    EXPECT_EQ(sim.memory().peek(flag).asInt(), 31);
    EXPECT_GE(stats.memParked, 1u);
    // The waiting load parked for roughly the producer's runtime.
    EXPECT_GE(stats.memParkedCycles, 5u);
}

TEST(SimCore, StrictPriorityFavorsEarlierThread)
{
    // Two identical children compete for cluster 2's integer unit.
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());

    auto child = pb.thread("child", {2, 0, 2});
    child.params({rr(0, 0)});
    child.rowOp(fuIU(2), op::mov(rr(2, 0), op::imm(0)));
    for (int i = 0; i < 30; ++i)
        child.rowOp(fuIU(2), op::alu(Opcode::IADD, rr(2, 0),
                                     op::reg(rr(2, 0)), op::imm(1)));
    child.rowOp(fuBR0(), op::ethr());

    auto main = pb.thread("main", {2});
    main.rowOp(fuBR0(), op::fork(0, {op::imm(1)}));
    main.rowOp(fuBR0(), op::fork(0, {op::imm(2)}));
    main.rowOp(fuBR0(), op::ethr());

    const Program program = pb.finish(1);
    Simulator sim(m, program);
    const auto stats = sim.run();
    // Thread ids: 0 = main, 1 = first child, 2 = second child.
    ASSERT_EQ(stats.threads.size(), 3u);
    EXPECT_LT(stats.threads[1].endCycle, stats.threads[2].endCycle);
}

TEST(SimCore, TwoClustersRunTrulyConcurrently)
{
    // One thread per cluster: the pair should take about as long as
    // one alone (inter-thread parallelism), not twice as long.
    const auto m = config::baseline();

    auto make = [&](bool both) {
        ProgramBuilder pb(m.clusters.size());
        auto c0 = pb.thread("c0", {2});
        c0.rowOp(fuIU(0), op::mov(rr(0, 0), op::imm(0)));
        for (int i = 0; i < 40; ++i)
            c0.rowOp(fuIU(0), op::alu(Opcode::IADD, rr(0, 0),
                                      op::reg(rr(0, 0)), op::imm(1)));
        c0.rowOp(fuBR0(), op::ethr());

        auto c1 = pb.thread("c1", {0, 2});
        c1.rowOp(fuIU(1), op::mov(rr(1, 0), op::imm(0)));
        for (int i = 0; i < 40; ++i)
            c1.rowOp(fuIU(1), op::alu(Opcode::IADD, rr(1, 0),
                                      op::reg(rr(1, 0)), op::imm(1)));
        c1.rowOp(fuBR0(), op::ethr());

        auto main = pb.thread("main", {1});
        main.rowOp(fuBR0(), op::fork(0, {}));
        if (both)
            main.rowOp(fuBR0(), op::fork(1, {}));
        main.rowOp(fuBR0(), op::ethr());
        return pb.finish(2);
    };

    const Program one_program = make(false);
    Simulator one(m, one_program);
    const Program two_program = make(true);
    Simulator two(m, two_program);
    const auto s1 = one.run();
    const auto s2 = two.run();
    EXPECT_LE(s2.cycles, s1.cycles + 5);
}

TEST(SimCore, RemoteWritesCrossClusters)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    const auto out = pb.data("out", 1);

    auto t = pb.thread("main", {2, 2});
    // Compute on cluster 0, deposit into cluster 1, consume there.
    t.rowOp(fuIU(0), op::alu(Opcode::IADD, rr(1, 0), op::imm(20),
                             op::imm(2)));
    t.rowOp(fuIU(1), op::alu(Opcode::IMUL, rr(1, 1), op::reg(rr(1, 0)),
                             op::imm(2)));
    t.rowOp(fuMU(1), op::st(op::imm(out), op::imm(0),
                            op::reg(rr(1, 1))));
    t.rowOp(fuBR0(), op::ethr());

    const Program program = pb.finish(0);
    Simulator sim(m, program);
    const auto stats = sim.run();
    EXPECT_EQ(sim.memory().peek(out).asInt(), 44);
    EXPECT_GE(stats.remoteWrites, 1u);
}

TEST(SimCore, MultiDestinationBroadcast)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    const auto out = pb.data("out", 2);

    auto t = pb.thread("main", {2, 2});
    t.rowOp(fuIU(0), op::alu2(Opcode::IADD, rr(0, 0), rr(1, 0),
                              op::imm(5), op::imm(6)));
    t.row();
    t.add(fuMU(0), op::st(op::imm(out), op::imm(0), op::reg(rr(0, 0))));
    t.add(fuMU(1), op::st(op::imm(out), op::imm(1), op::reg(rr(1, 0))));
    t.rowOp(fuBR0(), op::ethr());

    const Program program = pb.finish(0);
    Simulator sim(m, program);
    sim.run();
    EXPECT_EQ(sim.memory().peek(out + 0).asInt(), 11);
    EXPECT_EQ(sim.memory().peek(out + 1).asInt(), 11);
}

TEST(SimCore, SameRowWarReadsOldValue)
{
    // Within one instruction, a reader of r0 and a writer of r0 are
    // simultaneous: the reader must see the pre-row value.
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    const auto out = pb.data("out", 2);

    auto t = pb.thread("main", {4});
    t.rowOp(fuIU(0), op::mov(rr(0, 0), op::imm(5)));
    t.row();
    t.add(fuIU(0), op::mov(rr(0, 1), op::reg(rr(0, 0))));      // reads 5
    t.add(fuFPU(0), op::alu(Opcode::FMOV, rr(0, 0),
                            op::fimm(9.0)));                   // writes
    t.row();
    t.add(fuMU(0), op::st(op::imm(out), op::imm(0), op::reg(rr(0, 1))));
    t.rowOp(fuMU(0), op::st(op::imm(out), op::imm(1), op::reg(rr(0, 0))));
    t.rowOp(fuBR0(), op::ethr());

    const Program program = pb.finish(0);
    Simulator sim(m, program);
    sim.run();
    EXPECT_EQ(sim.memory().peek(out + 0).asInt(), 5);
    EXPECT_DOUBLE_EQ(sim.memory().peek(out + 1).asFloat(), 9.0);
}

TEST(SimCore, DeadlockIsDetectedAndReported)
{
    auto m = config::baseline();
    m.deadlockCycleLimit = 200;
    ProgramBuilder pb(m.clusters.size());
    const auto flag = pb.data("flag", 1);
    pb.init(flag, Value::makeInt(0), /*full=*/false);

    auto t = pb.thread("main", {2});
    t.rowOp(fuMU(0), op::ld(rr(0, 0), op::imm(flag), op::imm(0),
                            MemFlavor::waitLoad()));
    t.rowOp(fuBR0(), op::ethr());

    const Program program = pb.finish(0);
    Simulator sim(m, program);
    EXPECT_THROW(sim.run(), SimError);
}

TEST(SimCore, SharedBusSlowerThanFullOnRemoteTraffic)
{
    auto make = [](const config::MachineConfig& m) {
        ProgramBuilder pb(m.clusters.size());
        auto t = pb.thread("main", {2, 2, 2, 2});
        // Four simultaneous remote writes, repeated.
        for (int rep = 0; rep < 8; ++rep) {
            t.row();
            t.add(fuIU(0), op::alu(Opcode::IADD, rr(1, rep % 2),
                                   op::imm(rep), op::imm(1)));
            t.add(fuIU(1), op::alu(Opcode::IADD, rr(2, rep % 2),
                                   op::imm(rep), op::imm(2)));
            t.add(fuIU(2), op::alu(Opcode::IADD, rr(3, rep % 2),
                                   op::imm(rep), op::imm(3)));
            t.add(fuIU(3), op::alu(Opcode::IADD, rr(0, rep % 2),
                                   op::imm(rep), op::imm(4)));
        }
        t.rowOp(fuBR0(), op::ethr());
        return pb.finish(0);
    };

    const auto full = config::baseline();
    const auto bus = config::withInterconnect(
        config::baseline(), config::InterconnectScheme::SharedBus);

    const Program full_program = make(full);
    Simulator sf(full, full_program);
    const Program bus_program = make(bus);
    Simulator sb(bus, bus_program);
    const auto cf = sf.run().cycles;
    const auto cb = sb.run().cycles;
    EXPECT_GT(cb, cf);
}

TEST(SimCore, MarksAreRecordedWithCycles)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    auto t = pb.thread("main", {2});
    t.rowOp(fuIU(0), op::mark(7));
    t.rowOp(fuIU(0), op::mov(rr(0, 0), op::imm(1)));
    t.rowOp(fuIU(0), op::mark(7));
    t.rowOp(fuBR0(), op::ethr());

    const Program program = pb.finish(0);
    Simulator sim(m, program);
    const auto stats = sim.run();
    const auto cycles = stats.markCycles(0, 7);
    ASSERT_EQ(cycles.size(), 2u);
    EXPECT_LT(cycles[0], cycles[1]);
    EXPECT_TRUE(stats.markCycles(0, 99).empty());
}

TEST(SimCore, MaxActiveThreadsQueuesSpawns)
{
    auto m = config::baseline();
    m.maxActiveThreads = 2;  // main + one child at a time
    ProgramBuilder pb(m.clusters.size());
    const auto out = pb.data("out", 4);

    auto child = pb.thread("child", {2});
    child.params({rr(0, 0)});
    child.rowOp(fuMU(0), op::st(op::imm(out), op::reg(rr(0, 0)),
                                op::imm(1)));
    child.rowOp(fuBR0(), op::ethr());

    auto main = pb.thread("main", {1});
    for (int i = 0; i < 4; ++i)
        main.rowOp(fuBR0(), op::fork(0, {op::imm(i)}));
    main.rowOp(fuBR0(), op::ethr());

    const Program program = pb.finish(1);
    Simulator sim(m, program);
    const auto stats = sim.run();
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(sim.memory().peek(out + i).asInt(), 1) << i;
    EXPECT_LE(stats.peakActiveThreads, 2);
    EXPECT_EQ(stats.threadsSpawned, 5u);
}

TEST(SimCore, RunsAreDeterministic)
{
    auto m = config::withMem2(config::baseline());
    auto make = [&] {
        ProgramBuilder pb(m.clusters.size());
        const auto a = pb.data("a", 16);
        auto t = pb.thread("main", {4});
        t.rowOp(fuIU(0), op::mov(rr(0, 0), op::imm(0)));
        for (int i = 0; i < 16; ++i) {
            t.rowOp(fuMU(0), op::ld(rr(0, 1), op::imm(a), op::imm(i)));
            t.rowOp(fuIU(0), op::alu(Opcode::IADD, rr(0, 0),
                                     op::reg(rr(0, 0)),
                                     op::reg(rr(0, 1))));
        }
        t.rowOp(fuBR0(), op::ethr());
        return pb.finish(0);
    };

    const Program program1 = make();
    Simulator s1(m, program1);
    const Program program2 = make();
    Simulator s2(m, program2);
    EXPECT_EQ(s1.run().cycles, s2.run().cycles);
}

TEST(SimCore, StatsSummaryMentionsKeyFigures)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    auto t = pb.thread("main", {2});
    t.rowOp(fuIU(0), op::mov(rr(0, 0), op::imm(1)));
    t.rowOp(fuBR0(), op::ethr());
    const Program program = pb.finish(0);
    Simulator sim(m, program);
    const auto stats = sim.run();
    const auto s = stats.summary();
    EXPECT_NE(s.find("cycles"), std::string::npos);
    EXPECT_NE(s.find("FPU"), std::string::npos);
}

} // namespace
} // namespace procoup
