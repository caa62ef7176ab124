/** @file Differential property test for the simulator hot path.
 *
 *  Feeds randomized PCL programs on randomized machine configurations
 *  through the optimized sim::Simulator and through the retained
 *  SlowReferenceSimulator (the original, unoptimized cycle loop, kept
 *  in tests/slow_reference_sim.hh as an executable spec) and requires
 *  bit-identical RunStats — every counter, every stall bucket, every
 *  per-thread attribution — plus identical final memory images.
 *
 *  The configuration space deliberately covers what the hot-path
 *  optimizations exploit: high memory latencies (quiescent-cycle
 *  fast-forward), mixed unit latencies (completion wheel), all
 *  interconnect schemes (writeback queue order), both arbitration
 *  policies (each unit's scan order over the live slots), operation
 *  caches and bounded active sets (which disable fast-forward), and
 *  synchronizing memory flavors (parked-transaction wakeups). Paper
 *  benchmarks that spawn up to 2017 threads cover long pending-
 *  writeback lists and round-robin over long active lists.
 *
 *  The generator only emits programs that terminate: loop bounds are
 *  constants, `take` is always immediately refilled by a dependent
 *  store to the same cell, and stored values are range-reduced so no
 *  intermediate overflows. If a (program, machine) pair still
 *  deadlocks (e.g. a bounded active set starving a forall join), both
 *  simulators must report the identical SimError.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/machine.hh"
#include "procoup/config/presets.hh"
#include "procoup/core/node.hh"
#include "procoup/isa/program.hh"
#include "procoup/sim/simulator.hh"
#include "procoup/sim/stats.hh"
#include "procoup/support/error.hh"
#include "procoup/support/rng.hh"
#include "procoup/support/strings.hh"

#include "slow_reference_sim.hh"

namespace procoup {
namespace {

using isa::Value;

constexpr int kArraySize = 8;

/** Random PCL program generator. Every program defines `arr` (8 int
 *  cells, full), two int globals, a worker procedure, and main. */
class ProgramGen
{
  public:
    explicit ProgramGen(std::uint64_t seed) : rng(seed) {}

    bool usesThreads() const { return _usesThreads; }

    std::string generate()
    {
        std::string src;
        src += "(defarray arr (8) :int :init (";
        for (int i = 0; i < kArraySize; ++i)
            src += strCat(rng.uniformInt(-9, 9), i + 1 < kArraySize ? " " : "");
        src += "))\n";
        src += strCat("(defvar g0 ", rng.uniformInt(-9, 9), ")\n");
        src += strCat("(defvar g1 ", rng.uniformInt(-9, 9), ")\n");

        locals = {"p0"};
        inMain = false;
        src += "(defun w (p0)\n";
        src += block(static_cast<int>(rng.uniformInt(2, 3)), 1);
        src += ")\n";

        locals = {"x0", "x1"};
        inMain = true;
        src += "(defun main ()\n";
        src += strCat("  (let ((x0 ", rng.uniformInt(-9, 9), ") (x1 ",
                      rng.uniformInt(-9, 9), "))\n");
        src += block(static_cast<int>(rng.uniformInt(3, 6)), 1);
        src += "))\n";
        return src;
    }

  private:
    /** An in-range array index: (mod e 8) may be negative, the +64
     *  re-biases before the final reduction. */
    std::string index(int depth)
    {
        return strCat("(mod (+ 64 (mod ", expr(depth), " 8)) 8)");
    }

    /** An integer expression over locals, globals, and arr. Products
     *  are range-reduced on the spot so no value can overflow. */
    std::string expr(int depth)
    {
        const auto leaf = [&]() -> std::string {
            switch (rng.uniformInt(0, 3)) {
              case 0: return strCat(rng.uniformInt(-9, 9));
              case 1: return "g0";
              case 2: return "g1";
              default:
                return locals.empty()
                           ? strCat(rng.uniformInt(-9, 9))
                           : locals[static_cast<std::size_t>(
                                 rng.uniformInt(
                                     0, static_cast<std::int64_t>(
                                            locals.size()) -
                                            1))];
            }
        };
        if (depth <= 0 || rng.chance(0.3))
            return leaf();
        switch (rng.uniformInt(0, 7)) {
          case 0:
            return strCat("(+ ", expr(depth - 1), " ", expr(depth - 1),
                          ")");
          case 1:
            return strCat("(- ", expr(depth - 1), " ", expr(depth - 1),
                          ")");
          case 2:
            return strCat("(mod (* ", expr(depth - 1), " ",
                          expr(depth - 1), ") 9973)");
          case 3:
            return strCat("(mod ", expr(depth - 1), " ",
                          rng.uniformInt(2, 9), ")");
          case 4:
            return strCat("(< ", expr(depth - 1), " ", expr(depth - 1),
                          ")");
          case 5:
            return strCat("(>= ", expr(depth - 1), " ",
                          expr(depth - 1), ")");
          case 6:
            return strCat("(not ", expr(depth - 1), ")");
          default:
            return strCat("(aref arr ", index(depth - 1), ")");
        }
    }

    /** A range-reduced expression, safe to store anywhere. */
    std::string boundedExpr(int depth)
    {
        return strCat("(mod ", expr(depth), " 9973)");
    }

    std::string statement(int nest)
    {
        const std::string pad(static_cast<std::size_t>(nest) * 2 + 2,
                              ' ');
        // Threading statements only at main's top nesting level, and
        // no further nesting below depth 3 (keeps loop products — and
        // with them simulated cycle counts — small).
        const bool may_thread = inMain && nest <= 1;
        const bool may_nest = nest < 3;
        const std::int64_t kind =
            rng.uniformInt(0, may_thread ? 11 : (may_nest ? 8 : 4));
        switch (kind) {
          case 0:   // assign a local
            if (!locals.empty())
                return strCat(
                    pad, "(set ",
                    locals[static_cast<std::size_t>(rng.uniformInt(
                        0,
                        static_cast<std::int64_t>(locals.size()) - 1))],
                    " ", boundedExpr(2), ")\n");
            [[fallthrough]];
          case 1:   // assign a global
            return strCat(pad, "(set ", rng.chance(0.5) ? "g0" : "g1",
                          " ", boundedExpr(2), ")\n");
          case 2:   // plain store
            return strCat(pad, "(aset arr ", index(1), " ",
                          boundedExpr(2), ")\n");
          case 3: { // atomic update: take empties, the dependent
                    // store to the same cell refills — never leaves
                    // an empty cell behind.
            const std::string idx = index(1);
            return strCat(pad, "(aset arr ", idx, " (+ 1 (take arr ",
                          idx, ")))\n");
          }
          case 4:   // synchronizing load (cells are full outside the
                    // take/store window above)
            return strCat(pad, "(set ", rng.chance(0.5) ? "g0" : "g1",
                          " (wait-load arr ", index(1), "))\n");
          case 5: { // single-arm conditional over a begin block
            std::string s = strCat(pad, "(if (< ", expr(1), " ",
                                   expr(1), ") (begin\n");
            s += block(static_cast<int>(rng.uniformInt(1, 2)),
                       nest + 1);
            s += pad + "))\n";
            return s;
          }
          case 6: { // bounded loop
            const std::string v = strCat("f", nest);
            std::string s =
                strCat(pad, "(for (", v, " 0 ",
                       rng.uniformInt(2, 3), ")\n");
            locals.push_back(v);
            s += block(static_cast<int>(rng.uniformInt(1, 3)),
                       nest + 1);
            locals.pop_back();
            s += pad + ")\n";
            return s;
          }
          case 7:   // instrumentation
            return strCat(pad, "(mark ", rng.uniformInt(0, 99), ")\n");
          case 8:   // inline procedure call (macro-expanded)
            if (inMain)
                return strCat(pad, "(w ", boundedExpr(1), ")\n");
            return strCat(pad, "(set g0 ", boundedExpr(2), ")\n");
          case 9:   // fire-and-forget thread
            _usesThreads = true;
            return strCat(pad, "(fork (w ", boundedExpr(1), "))\n");
          default: { // parallel loop; body sees only the index and
                     // globals (capture limit)
            _usesThreads = true;
            const std::string v = strCat("q", nest);
            std::string s = strCat(pad, "(forall (", v, " 0 ",
                                   rng.uniformInt(2, 4), ")\n");
            std::vector<std::string> saved;
            saved.swap(locals);
            locals.push_back(v);
            const bool saved_in_main = inMain;
            inMain = false;
            s += block(static_cast<int>(rng.uniformInt(1, 3)),
                       nest + 1);
            inMain = saved_in_main;
            locals.swap(saved);
            s += pad + ")\n";
            return s;
          }
        }
    }

    std::string block(int statements, int nest)
    {
        std::string s;
        for (int i = 0; i < statements; ++i)
            s += statement(nest);
        return s;
    }

    Rng rng;
    std::vector<std::string> locals;
    bool inMain = false;
    bool _usesThreads = false;
};

/** A random machine around the baseline structure: the compiler's
 *  cluster assumptions hold, everything the hot path depends on
 *  varies. */
config::MachineConfig
randomMachine(Rng& rng, bool program_uses_threads)
{
    auto m = config::baseline();

    const int lat_pick[] = {1, 1, 1, 2, 4, 20, 60, 120};
    m.memory.hitLatency =
        lat_pick[rng.uniformInt(0, 7)];
    if (rng.chance(0.4)) {
        m.memory.missRate = rng.chance(0.5) ? 0.05 : 0.3;
        m.memory.missPenaltyMin = 20;
        m.memory.missPenaltyMax = rng.chance(0.5) ? 100 : 400;
    }
    m.memory.numBanks = static_cast<int>(rng.uniformInt(1, 4));
    m.memory.modelBankConflicts = rng.chance(0.3);
    m.memory.seed = rng.next();

    const config::InterconnectScheme schemes[] = {
        config::InterconnectScheme::Full,
        config::InterconnectScheme::TriPort,
        config::InterconnectScheme::DualPort,
        config::InterconnectScheme::SinglePort,
        config::InterconnectScheme::SharedBus,
    };
    m.interconnect = schemes[rng.uniformInt(0, 4)];
    if (rng.chance(0.5))
        m.arbitration = config::ArbitrationPolicy::RoundRobin;

    if (rng.chance(0.5))
        for (auto& cluster : m.clusters)
            for (auto& fu : cluster.units)
                fu.latency = static_cast<int>(rng.uniformInt(1, 4));

    if (rng.chance(0.25)) {
        m.opCache.enabled = true;
        m.opCache.linesPerUnit = rng.chance(0.5) ? 2 : 8;
        m.opCache.rowsPerLine = rng.chance(0.5) ? 1 : 4;
        m.opCache.missPenalty = rng.chance(0.5) ? 2 : 8;
    }

    if (rng.chance(0.3)) {
        // A bounded active set can starve a forall join outright
        // (parent holds a slot while blocked on the children); only
        // pair it with threaded programs when idle swap-out can
        // rotate the parent out.
        if (program_uses_threads) {
            m.maxActiveThreads = static_cast<int>(rng.uniformInt(4, 6));
            m.swapOutIdleCycles = rng.chance(0.5) ? 5 : 40;
        } else {
            m.maxActiveThreads = static_cast<int>(rng.uniformInt(1, 4));
            if (rng.chance(0.5))
                m.swapOutIdleCycles = rng.chance(0.5) ? 5 : 40;
        }
    }
    return m;
}

/** Runs longer than this are skipped rather than replayed on the
 *  reference simulator, whose whole point is to be slow. */
constexpr std::uint64_t kCycleCap = 250000;

struct Observed
{
    bool threw = false;
    bool capped = false;
    std::string error;
    sim::RunStats stats;
    std::vector<std::pair<Value, bool>> memory;
};

template <typename Sim>
Observed
observe(const config::MachineConfig& machine, const isa::Program& prog,
        const sim::SimOptions& options = {})
{
    Observed o;
    Sim s(machine, prog, options);
    try {
        while (s.step()) {
            if (s.cycle() > kCycleCap) {
                o.capped = true;
                return o;
            }
        }
        o.stats = s.stats();
    } catch (const SimError& e) {
        o.threw = true;
        o.error = e.what();
        return o;
    }
    for (std::uint32_t a = 0; a < s.memory().size(); ++a)
        o.memory.emplace_back(s.memory().peek(a), s.memory().isFull(a));
    return o;
}

TEST(SimHotpathProperty, OptimizedMatchesReferenceSimulator)
{
    int ran = 0;
    int deadlocks = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        Rng rng(seed * 0x9e3779b97f4a7c15ull);
        ProgramGen gen(rng.next());
        const std::string src = gen.generate();
        const config::MachineConfig machine =
            randomMachine(rng, gen.usesThreads());

        core::CoupledNode node(machine);
        isa::Program prog;
        try {
            prog = node.compile(src, core::SimMode::Coupled).program;
        } catch (const CompileError& e) {
            FAIL() << "generator emitted uncompilable source (seed "
                   << seed << "): " << e.what() << "\n"
                   << src;
        }

        const Observed fast = observe<sim::Simulator>(machine, prog);
        if (fast.capped)
            continue;  // too long to replay on the reference sim
        const Observed ref =
            observe<simtest::SlowReferenceSimulator>(machine, prog);
        ASSERT_FALSE(ref.capped) << "seed " << seed
                                 << ": reference ran past the cap but "
                                    "the optimized sim finished";

        ASSERT_EQ(fast.threw, ref.threw)
            << "seed " << seed << ": one simulator deadlocked\n"
            << (fast.threw ? fast.error : ref.error) << "\n"
            << src;
        if (fast.threw) {
            EXPECT_EQ(fast.error, ref.error) << "seed " << seed;
            ++deadlocks;
            continue;
        }
        ASSERT_TRUE(fast.stats == ref.stats)
            << "seed " << seed << ": RunStats diverged (cycles "
            << fast.stats.cycles << " vs " << ref.stats.cycles
            << ")\n"
            << src;
        ASSERT_EQ(fast.memory.size(), ref.memory.size());
        for (std::size_t a = 0; a < fast.memory.size(); ++a) {
            ASSERT_TRUE(fast.memory[a].first == ref.memory[a].first &&
                        fast.memory[a].second == ref.memory[a].second)
                << "seed " << seed << ": memory image diverged at "
                << a << "\n"
                << src;
        }
        ++ran;
    }
    // The point is differential coverage, not deadlock hunting: the
    // overwhelming majority of cases must complete.
    EXPECT_GE(ran, 40) << "too few comparable runs (deadlocks: "
                       << deadlocks << ")";
}

/** The random programs rarely spawn more than a few threads. These
 *  benchmarks spawn 81 to 2017 on interconnects narrow enough to keep
 *  writes queued, including writes for threads that already retired,
 *  and round-robin starts each unit's scan deep into a long active
 *  list. */
TEST(SimHotpathProperty, ManyThreadProgramsOnNarrowInterconnects)
{
    struct Case
    {
        const char* benchmark;
        core::SimMode mode;
    };
    const Case cases[] = {
        {"Sort", core::SimMode::Coupled},
        {"FFT", core::SimMode::Coupled},
        {"Model", core::SimMode::Coupled},
        {"LUD", core::SimMode::Tpe},
    };
    for (const auto scheme : {config::InterconnectScheme::SharedBus,
                              config::InterconnectScheme::SinglePort}) {
        auto machine = config::withInterconnect(config::baseline(), scheme);
        machine.arbitration = config::ArbitrationPolicy::RoundRobin;
        core::CoupledNode node(machine);
        for (const auto& c : cases) {
            const std::string what = strCat(
                c.benchmark, " on ",
                config::interconnectSchemeName(scheme));
            const isa::Program prog =
                node.compile(benchmarks::byName(c.benchmark)
                                 .forMode(c.mode),
                             c.mode)
                    .program;
            // The sanitizer also checks that the pending-writeback list
            // names exactly the non-empty queues, in ascending order.
            sim::SimOptions checked;
            checked.sanitizeEveryCycles = 256;
            const Observed fast =
                observe<sim::Simulator>(machine, prog, checked);
            const Observed ref =
                observe<simtest::SlowReferenceSimulator>(machine, prog);
            ASSERT_FALSE(fast.threw || fast.capped)
                << what << ": " << fast.error;
            ASSERT_FALSE(ref.threw || ref.capped)
                << what << ": " << ref.error;
            EXPECT_GE(fast.stats.threadsSpawned, 81u) << what;
            EXPECT_TRUE(fast.stats == ref.stats)
                << what << ": RunStats diverged (cycles "
                << fast.stats.cycles << " vs " << ref.stats.cycles << ")";
            EXPECT_TRUE(fast.memory == ref.memory)
                << what << ": memory image diverged";
        }
    }
}

/** The cycle loop's work counts are the same on every host, so they
 *  are pinned exactly. Every writeback queue the drain visits holds an
 *  entry that is either granted or retained for a later cycle, which
 *  bounds the visits; a drain over every thread ever spawned breaks
 *  that bound by orders of magnitude on LUD (2017 threads). */
TEST(SimHotpathProperty, WorkCountsOnTable2AndSharedBus)
{
    // Slots issue selection examines on the Table 2 LUD points.
    const std::map<core::SimMode, std::uint64_t> ludSlots = {
        {core::SimMode::Seq, 108260},
        {core::SimMode::Sts, 112194},
        {core::SimMode::Tpe, 441411},
        {core::SimMode::Coupled, 380148},
    };
    struct Point
    {
        std::string benchmark;
        core::SimMode mode;
        config::MachineConfig machine;
        std::uint64_t slots = 0;  ///< pinned when nonzero
    };
    std::vector<Point> points;
    for (const std::string name : {"Matrix", "FFT", "LUD", "Model"})
        for (const auto mode : core::allSimModes())
            if (mode != core::SimMode::Ideal ||
                benchmarks::byName(name).hasIdeal())
                points.push_back({name, mode, config::baseline(),
                                  name == "LUD" ? ludSlots.at(mode) : 0});
    ASSERT_EQ(points.size(), 18u);
    for (const auto mode : {core::SimMode::Tpe, core::SimMode::Coupled})
        points.push_back({"LUD", mode,
                          config::withInterconnect(
                              config::baseline(),
                              config::InterconnectScheme::SharedBus)});

    for (const Point& p : points) {
        const std::string what =
            strCat(p.benchmark, " ", core::simModeName(p.mode), " on ",
                   config::interconnectSchemeName(p.machine.interconnect));
        core::CoupledNode node(p.machine);
        const isa::Program prog =
            node.compile(benchmarks::byName(p.benchmark).forMode(p.mode),
                         p.mode)
                .program;
        sim::Simulator s(p.machine, prog);
        const sim::RunStats st = s.run();
        EXPECT_LE(s.work().wbQueuesVisited,
                  st.writebacks + st.writebackStallCycles)
            << what;
        EXPECT_GT(s.work().issueSlotsExamined, 0u) << what;
        if (p.slots > 0) {
            EXPECT_EQ(s.work().issueSlotsExamined, p.slots) << what;
        }
    }
}

/** The conservation identity holds on the fast-forward path too
 *  (high memory latency ⇒ long quiescent spans are bulk-charged). */
TEST(SimHotpathProperty, StallConservationAcrossFastForward)
{
    auto m = config::baseline();
    m.memory.hitLatency = 150;
    core::CoupledNode node(m);
    const auto run = node.runBenchmark(
        benchmarks::byName("Matrix"), core::SimMode::Coupled);
    const auto& st = run.stats;
    std::uint64_t attributed = 0;
    for (const auto& counts : st.stallsByFu)
        for (const auto c : counts)
            attributed += c;
    EXPECT_EQ(st.cycles * st.stallsByFu.size(), attributed);
}

} // namespace
} // namespace procoup
