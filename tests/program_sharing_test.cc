/** @file A compiled program exists once per compile key: a Simulator
 *  borrows the program it runs instead of copying it, and a sweep
 *  point that hits the compile cache shares the cache's entry. An
 *  operator new hook counts this binary's heap allocations. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/runner.hh"
#include "procoup/isa/builder.hh"
#include "procoup/sim/simulator.hh"
#include "test_util.hh"

namespace {

std::atomic<std::size_t> g_allocations{0};

} // namespace

// Out of line, like the deletes: the compiler would otherwise pair an
// inlined malloc() or free() with a new-expression and warn
// (-Wmismatched-new-delete).
[[gnu::noinline]] void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace procoup {
namespace {

using namespace isa;
using testutil::fuBR0;
using testutil::fuIU;
using testutil::fuMU;
using testutil::rr;

/** One thread of @p rows dependent adds, whose sum is stored to the
 *  one data word: the same registers and memory at every length. */
Program
straightLine(const config::MachineConfig& m, int rows)
{
    ProgramBuilder pb(m.clusters.size());
    const auto sum = pb.data("sum", 1);
    auto t = pb.thread("main", {1});
    t.rowOp(fuIU(0), op::mov(rr(0, 0), op::imm(0)));
    for (int i = 0; i < rows; ++i)
        t.rowOp(fuIU(0), op::alu(Opcode::IADD, rr(0, 0),
                                 op::reg(rr(0, 0)), op::imm(1)));
    t.rowOp(fuMU(0), op::st(op::imm(sum), op::imm(0), op::reg(rr(0, 0))));
    t.rowOp(fuBR0(), op::ethr());
    return pb.finish(0);
}

/** Heap allocations one Simulator makes binding @p program. */
std::size_t
bindAllocations(const config::MachineConfig& m, const Program& program)
{
    const std::size_t before = g_allocations.load();
    sim::Simulator simulator(m, program);
    return g_allocations.load() - before;
}

TEST(ProgramSharing, SimulatorBindDoesNotGrowWithTheProgram)
{
    const auto m = config::baseline();
    const Program short_program = straightLine(m, 10);
    const Program long_program = straightLine(m, 1000);

    const std::size_t short_allocs = bindAllocations(m, short_program);
    EXPECT_GT(short_allocs, 0u);  // the hook sees this binary's news
    EXPECT_EQ(bindAllocations(m, long_program), short_allocs);

    sim::Simulator simulator(m, long_program);
    simulator.run();
    EXPECT_EQ(simulator.memory().peek(long_program.symbol("sum").base)
                  .asInt(),
              1000);
}

TEST(ProgramSharing, WarmPointSharesTheCacheEntry)
{
    exp::ExperimentPlan plan("program-sharing");
    plan.addBenchmark(config::baseline(), benchmarks::byName("Matrix"),
                      core::SimMode::Coupled);
    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    exp::SweepRunner runner(ropts);
    runner.run(plan);  // warms the cache
    const exp::SweepResult warm = runner.run(plan);

    const exp::RunOutcome& o = warm.outcomes.front();
    ASSERT_TRUE(o.compileCached);
    const exp::SweepPoint& p = plan.points().front();
    const auto entry =
        runner.cache().compile(p.source, p.machine, p.options);
    EXPECT_EQ(o.compiled.get(), entry.get());

    // The result itself holds what a journal record holds.
    EXPECT_TRUE(o.result.compiled.program.threads.empty());
    EXPECT_EQ(o.result.compiled.program.memorySize,
              entry->program.memorySize);
    EXPECT_EQ(o.result.compiled.program.symbols.size(),
              entry->program.symbols.size());
    EXPECT_EQ(o.result.compiled.funcInfo.size(), entry->funcInfo.size());
}

TEST(ProgramSharing, CoupledNodeRunKeepsSymbolsNotCode)
{
    const auto m = config::baseline();
    const Program program = straightLine(m, 10);
    const core::RunResult r = core::CoupledNode(m).run(program);
    EXPECT_TRUE(r.compiled.program.threads.empty());
    EXPECT_EQ(r.compiled.program.memorySize, program.memorySize);
    EXPECT_EQ(r.intValue("sum"), 10);
}

} // namespace
} // namespace procoup
