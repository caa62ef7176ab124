/** @file Persistent compile cache: cross-instance reuse with zero
 *  recompiles, silent recovery from truncated and bit-flipped
 *  entries (identical RunStats, corruption counted), atomic
 *  publication, and the runs that leave the disk cache off. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/cache.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"
#include "procoup/exp/serialize.hh"
#include "scoped_temp_dir.hh"

namespace procoup {
namespace {

struct Workload
{
    std::string source;
    config::MachineConfig machine = config::baseline();
    sched::CompileOptions opts;

    Workload()
    {
        const auto& b = benchmarks::byName("Matrix");
        source = b.forMode(core::SimMode::Coupled);
        opts = core::optionsFor(core::SimMode::Coupled);
    }

    std::string entryPath(const std::string& dir) const
    {
        return exp::CompileCache::entryPath(
            dir, exp::CompileCache::key(source, machine, opts));
    }
};

/** Run the workload through a fresh cache bound to @p dir. */
sim::RunStats
runThrough(const Workload& w, const std::string& dir,
           exp::CompileCache::Stats* stats_out = nullptr)
{
    exp::ExperimentPlan plan("disk-cache-test");
    plan.addBenchmark(w.machine, benchmarks::byName("Matrix"),
                      core::SimMode::Coupled);
    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.diskCacheDir = dir;
    exp::SweepRunner runner(ropts);
    const exp::SweepResult res = runner.run(plan);
    if (stats_out)
        *stats_out = runner.cache().stats();
    return res.outcomes.front().result.stats;
}

TEST(DiskCache, WarmStartCompilesNothingAndMatches)
{
    const testutil::ScopedTempDir tmp("procoup_diskcache");
    const std::string& dir = tmp.path();
    Workload w;

    exp::CompileCache::Stats cold;
    const sim::RunStats a = runThrough(w, dir, &cold);
    EXPECT_GT(cold.compiles, 0u);
    EXPECT_GT(cold.diskStores, 0u);
    EXPECT_EQ(cold.diskHits, 0u);
    std::ifstream entry(w.entryPath(dir));
    EXPECT_TRUE(entry.good()) << w.entryPath(dir);

    // A different process (modeled by a fresh cache) compiles nothing.
    exp::CompileCache::Stats warm;
    const sim::RunStats b = runThrough(w, dir, &warm);
    EXPECT_EQ(warm.compiles, 0u);
    EXPECT_GT(warm.diskHits, 0u);
    EXPECT_EQ(warm.diskCorrupt, 0u);
    EXPECT_TRUE(a == b);
}

TEST(DiskCache, TruncatedEntryIsSilentlyRecompiled)
{
    const testutil::ScopedTempDir tmp("procoup_diskcache");
    const std::string& dir = tmp.path();
    Workload w;
    const sim::RunStats a = runThrough(w, dir);

    const std::string path = w.entryPath(dir);
    std::string bytes;
    ASSERT_TRUE(exp::readWholeFile(path, &bytes));
    ASSERT_TRUE(
        exp::atomicWriteFile(path, bytes.substr(0, bytes.size() / 2)));

    exp::CompileCache::Stats st;
    const sim::RunStats b = runThrough(w, dir, &st);
    EXPECT_EQ(st.diskCorrupt, 1u);
    EXPECT_EQ(st.diskHits, 0u);
    EXPECT_GT(st.compiles, 0u);   // recompiled...
    EXPECT_GT(st.diskStores, 0u); // ...and re-published
    EXPECT_TRUE(a == b);          // with identical results

    // The re-published entry serves the next run again.
    exp::CompileCache::Stats healed;
    runThrough(w, dir, &healed);
    EXPECT_EQ(healed.compiles, 0u);
    EXPECT_GT(healed.diskHits, 0u);
}

TEST(DiskCache, BitFlippedEntryIsSilentlyRecompiled)
{
    const testutil::ScopedTempDir tmp("procoup_diskcache");
    const std::string& dir = tmp.path();
    Workload w;
    const sim::RunStats a = runThrough(w, dir);

    const std::string path = w.entryPath(dir);
    std::string bytes;
    ASSERT_TRUE(exp::readWholeFile(path, &bytes));
    // Flip a payload bit (past the header) so the length still parses
    // but the checksum does not.
    bytes[exp::kFrameHeaderSize + bytes.size() / 2] ^= 0x01;
    ASSERT_TRUE(exp::atomicWriteFile(path, bytes));

    exp::CompileCache::Stats st;
    const sim::RunStats b = runThrough(w, dir, &st);
    EXPECT_EQ(st.diskCorrupt, 1u);
    EXPECT_GT(st.compiles, 0u);
    EXPECT_TRUE(a == b);
}

TEST(DiskCache, KeyCollisionIsDetectedByEmbeddedKey)
{
    const testutil::ScopedTempDir tmp("procoup_diskcache");
    const std::string& dir = tmp.path();
    Workload w;
    runThrough(w, dir);

    // A foreign entry under our file name (hash collision model):
    // valid frame, wrong embedded key string.
    exp::ByteWriter fw;
    fw.str("some other compilation key");
    ASSERT_TRUE(exp::atomicWriteFile(w.entryPath(dir),
                                     exp::frame(fw.take())));

    exp::CompileCache::Stats st;
    runThrough(w, dir, &st);
    EXPECT_EQ(st.diskCorrupt, 1u);
    EXPECT_GT(st.compiles, 0u);
}

TEST(DiskCache, EntryThatFailsValidationIsRecompiled)
{
    const testutil::ScopedTempDir tmp("procoup_diskcache");
    const std::string& dir = tmp.path();
    Workload w;
    const sim::RunStats a = runThrough(w, dir);

    // A well-framed entry under its true key whose program the
    // machine cannot run: one slot moved to a unit it does not have.
    sched::CompileResult bad = sched::compile(w.source, w.machine, w.opts);
    bad.program.threads.at(bad.program.entry)
        .instructions.at(0)
        .slots.at(0)
        .fu = 99;
    exp::ByteWriter bw;
    bw.str(exp::CompileCache::key(w.source, w.machine, w.opts));
    exp::writeCompileResult(bw, bad);
    ASSERT_TRUE(
        exp::atomicWriteFile(w.entryPath(dir), exp::frame(bw.take())));

    exp::CompileCache::Stats st;
    const sim::RunStats b = runThrough(w, dir, &st);
    EXPECT_EQ(st.diskCorrupt, 1u);
    EXPECT_EQ(st.diskHits, 0u);
    EXPECT_GT(st.compiles, 0u);   // recompiled...
    EXPECT_GT(st.diskStores, 0u); // ...and re-published
    EXPECT_TRUE(a == b);

    exp::CompileCache::Stats healed;
    runThrough(w, dir, &healed);
    EXPECT_EQ(healed.compiles, 0u);
    EXPECT_GT(healed.diskHits, 0u);
}

/** A hand-made compile result covering every Program, Operation and
 *  Operand form the .pcc layout carries. */
sched::CompileResult
pinnedCompileResult()
{
    using namespace isa;
    Operation add;
    add.opcode = Opcode::IADD;
    add.srcs = {Operand::makeReg(RegRef{0, 1}), Operand::makeIntImm(-7)};
    add.dsts = {RegRef{1, 2}, RegRef{0, 3}};
    Operation load;
    load.opcode = Opcode::LD;
    load.srcs = {Operand::makeReg(RegRef{0, 4}), Operand::makeIntImm(8)};
    load.dsts = {RegRef{0, 5}};
    load.flavor = MemFlavor::consumeLoad();
    Operation fmul;
    fmul.opcode = Opcode::FMUL;
    fmul.srcs = {Operand::makeFloatImm(1.5), Operand()};
    fmul.dsts = {RegRef{1, 0}};
    Operation branch;
    branch.opcode = Opcode::BT;
    branch.srcs = {Operand::makeReg(RegRef{0, 6})};
    branch.branchTarget = 0;
    Operation fork;
    fork.opcode = Opcode::FORK;
    fork.srcs = {Operand::makeReg(RegRef{0, 1})};
    fork.forkTarget = 1;
    Operation mark;
    mark.opcode = Opcode::MARK;
    mark.markId = -3;

    ThreadCode main;
    main.name = "main";
    main.instructions.resize(3);
    main.instructions[0].slots = {{0, add}, {2, load}};
    main.instructions[1].slots = {{1, fmul}, {3, mark}};
    main.instructions[2].slots = {{3, branch}, {3, fork}};
    main.regCount = {7, 1};
    ThreadCode child;
    child.name = "child";
    child.instructions.resize(1);
    Operation end;
    end.opcode = Opcode::ETHR;
    child.instructions[0].slots = {{3, end}};
    child.paramHomes = {RegRef{0, 1}};
    child.regCount = {2, 0};

    sched::CompileResult c;
    c.program.threads = {main, child};
    c.program.entry = 0;
    c.program.memorySize = 16;
    c.program.memInits = {{0, Value::makeInt(5), true},
                          {1, Value::makeFloat(-0.25), false}};
    c.program.symbols["out"] = Symbol{0, 1};
    c.program.symbols["ring"] = Symbol{1, 8};
    sched::FuncScheduleInfo f;
    f.name = "main";
    f.blockRows = {2, 1};
    f.totalRows = 3;
    f.totalOps = 6;
    f.copiesInserted = 1;
    f.regCount = {7, 1};
    c.funcInfo = {f};
    return c;
}

TEST(DiskCache, EntryBytesArePinned)
{
    // A .pcc entry is one frame around the full key string and the
    // compile result. Its digest pins the layout, and decoding it the
    // way CompileCache::diskLoad does re-encodes to the same bytes, so
    // every form round-trips. The pinned program holds forms no
    // machine runs, which the cache counts corrupt; serving a runnable
    // program framed the same way from a fresh cache proves this is
    // the layout the cache reads.
    const testutil::ScopedTempDir tmp("procoup_diskcache");
    const std::string& dir = tmp.path();
    Workload w;
    w.source = "(defvar out 0)(defun main () (set out 1))";
    const std::string key =
        exp::CompileCache::key(w.source, w.machine, w.opts);
    const sched::CompileResult pinned = pinnedCompileResult();
    exp::ByteWriter entry;
    entry.str(key);
    exp::writeCompileResult(entry, pinned);
    const std::string bytes = exp::frame(entry.take());
    EXPECT_EQ(exp::fnv1a64Hex(bytes), "4e8a071aac8a7e73");

    std::size_t offset = 0;
    std::string payload;
    ASSERT_TRUE(exp::readFrame(bytes, offset, &payload));
    EXPECT_EQ(offset, bytes.size());
    exp::ByteReader r(payload);
    EXPECT_EQ(r.str(), key);
    sched::CompileResult decoded;
    ASSERT_TRUE(exp::readCompileResult(r, &decoded));
    EXPECT_TRUE(r.atEnd());
    exp::ByteWriter decoded_entry;
    decoded_entry.str(key);
    exp::writeCompileResult(decoded_entry, decoded);
    EXPECT_EQ(exp::frame(decoded_entry.take()), bytes);

    exp::ByteWriter runnable;
    runnable.str(key);
    exp::writeCompileResult(runnable,
                            sched::compile(w.source, w.machine, w.opts));
    const std::string runnable_bytes = exp::frame(runnable.take());
    ASSERT_TRUE(exp::atomicWriteFile(w.entryPath(dir), runnable_bytes));
    exp::CompileCache cache;
    cache.setDiskDir(dir);
    const auto served = cache.compile(w.source, w.machine, w.opts);
    EXPECT_EQ(cache.stats().diskHits, 1u);
    EXPECT_EQ(cache.stats().compiles, 0u);
    exp::ByteWriter again;
    again.str(key);
    exp::writeCompileResult(again, *served);
    EXPECT_EQ(exp::frame(again.take()), runnable_bytes);
}

TEST(DiskCache, DisabledCacheBypassesDiskEntirely)
{
    const testutil::ScopedTempDir tmp("procoup_diskcache");
    const std::string& dir = tmp.path();
    Workload w;

    exp::CompileCache cache;
    cache.setEnabled(false);
    cache.setDiskDir(dir);
    cache.compile(w.source, w.machine, w.opts);
    const auto st = cache.stats();
    EXPECT_EQ(st.diskStores, 0u);
    EXPECT_EQ(st.diskHits, 0u);
    std::ifstream entry(w.entryPath(dir));
    EXPECT_FALSE(entry.good());
}

TEST(DiskCache, RunnerWithoutDiskDirWritesNothing)
{
    const testutil::ScopedTempDir tmp("procoup_diskcache");
    const std::string& dir = tmp.path();
    Workload w;
    // diskCacheDir stays empty (no --disk-cache flag): no entry
    // may appear even though the directory exists.
    exp::ExperimentPlan plan("no-disk");
    plan.addBenchmark(w.machine, benchmarks::byName("Matrix"),
                      core::SimMode::Coupled);
    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    exp::SweepRunner runner(ropts);
    runner.run(plan);
    EXPECT_EQ(runner.cache().stats().diskStores, 0u);
    std::ifstream entry(w.entryPath(dir));
    EXPECT_FALSE(entry.good());
}

} // namespace
} // namespace procoup
