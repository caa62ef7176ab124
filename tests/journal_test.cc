/** @file Crash-safe results journal: frame/record round-trips, torn
 *  and corrupted tails, fingerprint invalidation, bit-identical
 *  replay with zero recompiles, and the deterministic retry policy
 *  that backs --retry-faulted and worker respawns. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/backoff.hh"
#include "procoup/exp/harness.hh"
#include "procoup/exp/journal.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"
#include "procoup/exp/serialize.hh"

namespace procoup {
namespace {

std::string
tempDir()
{
    char tmpl[] = "/tmp/procoup_journal_XXXXXX";
    const char* d = ::mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    return d;
}

exp::ExperimentPlan
smallPlan()
{
    const auto machine = config::baseline();
    exp::ExperimentPlan plan("journal-test");
    plan.addBenchmark(machine, benchmarks::byName("Matrix"),
                      core::SimMode::Coupled);
    plan.addBenchmark(machine, benchmarks::byName("Matrix"),
                      core::SimMode::Sts);
    plan.addBenchmark(machine, benchmarks::byName("LUD"),
                      core::SimMode::Coupled);
    return plan;
}

TEST(Serialize, FrameRoundTripAndCorruptionDetection)
{
    const std::string payload = "the quick brown fox";
    std::string bytes = exp::frame(payload);
    ASSERT_EQ(bytes.size(), exp::kFrameHeaderSize + payload.size());

    std::size_t offset = 0;
    std::string got;
    ASSERT_TRUE(exp::readFrame(bytes, offset, &got));
    EXPECT_EQ(got, payload);
    EXPECT_EQ(offset, bytes.size());

    // Torn tail: every strict prefix fails without advancing.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::string torn = bytes.substr(0, cut);
        std::size_t off = 0;
        EXPECT_FALSE(exp::readFrame(torn, off, &got)) << cut;
        EXPECT_EQ(off, 0u);
    }

    // A flipped bit anywhere breaks magic, version, length bounds, or
    // the checksum — never yields a wrong payload silently.
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string evil = bytes;
        evil[i] = static_cast<char>(evil[i] ^ 0x20);
        std::size_t off = 0;
        if (exp::readFrame(evil, off, &got))
            EXPECT_EQ(got, payload) << "flip at byte " << i;
    }

    // Two frames back to back parse in sequence.
    std::string two = exp::frame("a") + exp::frame("bb");
    offset = 0;
    ASSERT_TRUE(exp::readFrame(two, offset, &got));
    EXPECT_EQ(got, "a");
    ASSERT_TRUE(exp::readFrame(two, offset, &got));
    EXPECT_EQ(got, "bb");
    EXPECT_EQ(offset, two.size());
}

TEST(Serialize, OutcomeRecordRoundTrip)
{
    exp::OutcomeRecord rec;
    rec.label = "point-a";
    rec.pointFingerprint = "deadbeefdeadbeef";
    rec.failed = true;
    rec.errorKind = 3;
    rec.errorCycle = 12345;
    rec.error = "deadlock at cycle 12345";
    rec.retries = 2;
    rec.compileCached = true;
    rec.wallMs = 1.5;
    rec.stats.cycles = 777;
    rec.memory.push_back(isa::Value::makeInt(9));
    rec.symbols["out"] = isa::Symbol{4, 2};
    rec.memorySize = 64;

    exp::OutcomeRecord back;
    ASSERT_TRUE(
        exp::decodeOutcomeRecord(exp::encodeOutcomeRecord(rec), &back));
    EXPECT_EQ(back.label, rec.label);
    EXPECT_EQ(back.pointFingerprint, rec.pointFingerprint);
    EXPECT_EQ(back.failed, rec.failed);
    EXPECT_EQ(back.errorKind, rec.errorKind);
    EXPECT_EQ(back.errorCycle, rec.errorCycle);
    EXPECT_EQ(back.error, rec.error);
    EXPECT_EQ(back.retries, rec.retries);
    EXPECT_EQ(back.compileCached, rec.compileCached);
    EXPECT_EQ(back.wallMs, rec.wallMs);
    EXPECT_EQ(back.stats.cycles, 777u);
    ASSERT_EQ(back.memory.size(), 1u);
    EXPECT_TRUE(back.memory[0] == rec.memory[0]);
    ASSERT_EQ(back.symbols.count("out"), 1u);
    EXPECT_EQ(back.symbols["out"].base, 4u);
    EXPECT_EQ(back.symbols["out"].size, 2u);
    EXPECT_EQ(back.memorySize, 64u);

    EXPECT_FALSE(exp::decodeOutcomeRecord("garbage", &back));
}

/** A hand-made clean record that sets every RunStats and record field,
 *  so its pinned digest covers the whole record layout. */
exp::OutcomeRecord
pinnedCleanRecord()
{
    exp::OutcomeRecord rec;
    rec.label = "Pinned/Coupled@pinned";
    rec.pointFingerprint = "0123456789abcdef";
    rec.retries = 1;
    rec.compileCached = true;
    rec.wallMs = 2.25;
    sim::RunStats& s = rec.stats;
    s.cycles = 618;
    s.opsByUnit = {100, 200, 300, 400};
    s.opsByFu = {11, 12, 13};
    s.totalOps = 5117;
    s.memAccesses = 21;
    s.memHits = 20;
    s.memMisses = 1;
    s.memParked = 2;
    s.memParkedCycles = 9;
    s.memBankDelayCycles = 3;
    s.opCacheHits = 4;
    s.opCacheMisses = 5;
    s.opCacheLineWaitCycles = 6;
    s.writebacks = 7;
    s.writebackStallCycles = 8;
    s.remoteWrites = 9;
    s.wbGrantsByCluster = {31, 32};
    s.wbDenialsByCluster = {41, 42};
    s.stallsByFu = {{1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11, 12, 13, 14}};
    s.stallsByCluster = {{15, 16, 17, 18, 19, 20, 21}};
    s.stallsTotal = {22, 23, 24, 25, 26, 27, 28};
    s.threadsSpawned = 3;
    s.peakActiveThreads = 2;
    s.threads.push_back({"main", 0, 618, 77, {1, 0, 0, 0, 0, 0, 2}});
    s.threads.push_back({"worker", 12, 500, 40, {0, 3, 0, 0, 1, 0, 0}});
    s.marks.push_back({1, -5, 300});
    s.faultsEnabled = true;
    s.faults.memJitterEvents = 51;
    s.faults.memJitterCycles = 52;
    s.faults.memBurstEvents = 53;
    s.faults.memBurstAccesses = 54;
    s.faults.memBurstCycles = 55;
    s.faults.bankStormEvents = 56;
    s.faults.bankStormDelayCycles = 57;
    s.faults.fuBubbleEvents = 58;
    s.faults.fuBubbleCycles = 59;
    s.faults.opcacheFlushes = 60;
    s.faults.spawnDelayEvents = 61;
    s.faults.spawnDelayCycles = 62;
    rec.memory = {isa::Value::makeInt(-9), isa::Value::makeFloat(0.5)};
    rec.symbols["out"] = isa::Symbol{4, 2};
    rec.symbols["a"] = isa::Symbol{0, 4};
    rec.memorySize = 64;
    sched::FuncScheduleInfo f;
    f.name = "main";
    f.blockRows = {3, 5};
    f.totalRows = 8;
    f.totalOps = 20;
    f.copiesInserted = 1;
    f.regCount = {6, 7};
    rec.funcInfo.push_back(f);
    return rec;
}

TEST(Serialize, OutcomeRecordBytesArePinned)
{
    // Digests of the record encoding as journals, worker pipes and
    // the daemon stream carry it. A change here breaks every journal
    // and every mixed-version daemon/client pair: it needs a
    // kFormatVersion bump, not a new constant.
    const exp::OutcomeRecord clean = pinnedCleanRecord();
    EXPECT_EQ(exp::fnv1a64Hex(exp::encodeOutcomeRecord(clean)),
              "d8fb9bccca740912");

    exp::OutcomeRecord failed;
    failed.label = "deadlock-point";
    failed.pointFingerprint = "fedcba9876543210";
    failed.failed = true;
    failed.errorKind = static_cast<std::uint8_t>(SimErrorKind::Deadlock);
    failed.errorCycle = 12345;
    failed.error = "deadlock at cycle 12345";
    failed.retries = 2;
    failed.wallMs = 0.75;
    EXPECT_EQ(exp::fnv1a64Hex(exp::encodeOutcomeRecord(failed)),
              "925789ef6be6bfac");

    exp::OutcomeRecord threw;
    threw.label = "budget-point";
    threw.pointFingerprint = "00000000deadbeef";
    threw.threw = 1;
    threw.errorKind = static_cast<std::uint8_t>(SimErrorKind::CycleLimit);
    threw.errorCycle = 999;
    threw.error = "cycle budget of 999 exhausted";
    EXPECT_EQ(exp::fnv1a64Hex(exp::encodeOutcomeRecord(threw)),
              "dac5be0032005847");
}

TEST(Journal, ReplayIsBitIdenticalWithZeroCompiles)
{
    const std::string dir = tempDir();
    const auto plan = smallPlan();

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir;
    exp::SweepRunner first(ropts);
    const exp::SweepResult a = first.run(plan);
    EXPECT_EQ(a.replayedPoints, 0u);
    EXPECT_GT(first.cache().stats().compiles, 0u);

    // The journal finalized: every point is loadable from the dir.
    exp::ResultsJournal peek;
    ASSERT_TRUE(peek.open(dir, plan));
    EXPECT_EQ(peek.loadedCount(), plan.size());

    exp::SweepRunner second(ropts);
    const exp::SweepResult b = second.run(plan);
    EXPECT_EQ(b.replayedPoints, plan.size());
    // Zero recompiles: replay never touches the compiler.
    EXPECT_EQ(second.cache().stats().compiles, 0u);

    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_TRUE(b.outcomes[i].replayed);
        EXPECT_TRUE(a.outcomes[i].result.stats ==
                    b.outcomes[i].result.stats);
        EXPECT_TRUE(a.outcomes[i].result.memory ==
                    b.outcomes[i].result.memory);
    }
    // The render-facing JSON is byte-identical too.
    EXPECT_EQ(exp::formatStatsBundle(a), exp::formatStatsBundle(b));
}

TEST(Journal, PartialJournalExecutesOnlyTheRemainder)
{
    const std::string dir = tempDir();
    const auto plan = smallPlan();

    // Record only the first point, as an interrupted sweep would.
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir, plan));
        exp::CompileCache cache;
        exp::RunnerOptions popts;
        const exp::RunOutcome one =
            exp::executeSweepPoint(plan.points()[0], cache, popts);
        j.append(exp::makeOutcomeRecord(
            one, exp::pointFingerprint(plan.points()[0])));
        // No finalize: the WAL alone must carry the resume.
    }

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir;
    exp::SweepRunner runner(ropts);
    const exp::SweepResult res = runner.run(plan);
    EXPECT_EQ(res.replayedPoints, 1u);
    EXPECT_TRUE(res.outcomes[0].replayed);
    EXPECT_FALSE(res.outcomes[1].replayed);
    EXPECT_FALSE(res.outcomes[2].replayed);
}

TEST(Journal, TornTailDiscardsOnlyTheTornRecord)
{
    const std::string dir = tempDir();
    const auto plan = smallPlan();

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir;
    exp::SweepRunner(ropts).run(plan);

    // Simulate a crash mid-append: chop the finalized journal's last
    // record in half and re-open. The prefix records must survive.
    exp::ResultsJournal peek;
    ASSERT_TRUE(peek.open(dir, plan));
    const std::string path = peek.journalPath();
    std::string bytes;
    ASSERT_TRUE(exp::readWholeFile(path, &bytes));
    ASSERT_GT(bytes.size(), 32u);
    const std::string torn = bytes.substr(0, bytes.size() - 17);
    ASSERT_TRUE(exp::atomicWriteFile(path, torn));

    exp::SweepRunner resumed(ropts);
    const exp::SweepResult res = resumed.run(plan);
    EXPECT_EQ(res.replayedPoints, plan.size() - 1);
    EXPECT_EQ(res.failedCount(), 0u);
}

TEST(Journal, AppendsAfterATornWalTailStayReachable)
{
    const std::string dir = tempDir();
    const auto plan = smallPlan();

    // An interrupted sweep: two points in the WAL, the second torn by
    // a crash mid-append.
    std::string wal;
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir, plan));
        exp::CompileCache cache;
        exp::RunnerOptions popts;
        for (std::size_t i = 0; i < 2; ++i)
            j.append(exp::makeOutcomeRecord(
                exp::executeSweepPoint(plan.points()[i], cache, popts),
                exp::pointFingerprint(plan.points()[i])));
        wal = j.walPath();
    }
    std::string bytes;
    ASSERT_TRUE(exp::readWholeFile(wal, &bytes));
    ASSERT_TRUE(
        exp::atomicWriteFile(wal, bytes.substr(0, bytes.size() - 17)));

    // The resume re-executes the torn point and appends the rest; all
    // of it must load again.
    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir;
    EXPECT_EQ(exp::SweepRunner(ropts).run(plan).replayedPoints, 1u);
    exp::ResultsJournal peek;
    ASSERT_TRUE(peek.open(dir, plan));
    EXPECT_EQ(peek.loadedCount(), plan.size());
}

TEST(Journal, FingerprintChangeInvalidatesOnlyThatPoint)
{
    const std::string dir = tempDir();
    auto plan = smallPlan();

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir;
    exp::SweepRunner(ropts).run(plan);

    // Tightening one point's cycle budget changes its fingerprint
    // (and the plan's, landing in fresh journal files) — nothing may
    // replay against the stale record set even though labels match.
    const std::string before =
        exp::pointFingerprint(plan.points()[1]);
    plan.mutablePoints()[1].simOptions.limits.maxCycles = 100000000;
    EXPECT_NE(before, exp::pointFingerprint(plan.points()[1]));

    exp::SweepRunner again(ropts);
    const exp::SweepResult res = again.run(plan);
    EXPECT_EQ(res.replayedPoints, 0u);
}

TEST(Journal, TracerPointsAreNeverJournaled)
{
    const std::string dir = tempDir();
    const auto machine = config::baseline();

    int events = 0;
    exp::ExperimentPlan plan("tracer");
    plan.addBenchmark(machine, benchmarks::byName("Matrix"),
                      core::SimMode::Coupled);
    plan.mutablePoints()[0].tracer =
        [&](const sim::TraceEvent&) { ++events; };

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir;
    exp::SweepRunner(ropts).run(plan);
    ASSERT_GT(events, 0);

    // Re-run: the tracer must fire again — a replay would silently
    // drop the observational side effect.
    events = 0;
    exp::SweepRunner again(ropts);
    const exp::SweepResult res = again.run(plan);
    EXPECT_EQ(res.replayedPoints, 0u);
    EXPECT_GT(events, 0);
}

TEST(Journal, FailSafeErrorRecordsReplayToo)
{
    const std::string dir = tempDir();
    auto machine = config::baseline();
    machine.deadlockCycleLimit = 300;

    exp::ExperimentPlan plan("failsafe-journal");
    plan.addSource("deadlock-point", machine,
                   "(defarray c (1) :int :empty)"
                   "(defvar out 0)"
                   "(defun main () (set out (take c 0)))",
                   core::SimMode::Coupled);

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.failSafe = true;
    ropts.journalDir = dir;
    const exp::SweepResult a = exp::SweepRunner(ropts).run(plan);
    ASSERT_EQ(a.failedCount(), 1u);

    const exp::SweepResult b = exp::SweepRunner(ropts).run(plan);
    EXPECT_EQ(b.replayedPoints, 1u);
    EXPECT_EQ(b.failedCount(), 1u);
    EXPECT_EQ(b.outcomes[0].errorKind, a.outcomes[0].errorKind);
    EXPECT_EQ(b.outcomes[0].errorCycle, a.outcomes[0].errorCycle);
    EXPECT_EQ(b.outcomes[0].error, a.outcomes[0].error);
}

TEST(RetryPolicy, DeterministicBoundedBackoff)
{
    exp::RetryPolicy p;
    p.maxAttempts = 5;
    p.baseDelayMs = 10.0;
    p.maxDelayMs = 50.0;
    EXPECT_EQ(p.maxRetries(), 4);

    for (int retry = 1; retry <= p.maxRetries(); ++retry) {
        const double d = p.delayMs(42, retry);
        // Exponential-with-cap envelope, jitter factor in [1, 2).
        const double base =
            std::min(p.maxDelayMs, 10.0 * (1 << (retry - 1)));
        EXPECT_GE(d, base);
        EXPECT_LT(d, 2.0 * base);
        // Same (seed, retry) -> same delay; different seed differs.
        EXPECT_EQ(d, p.delayMs(42, retry));
        EXPECT_NE(d, p.delayMs(43, retry));
    }
    EXPECT_EQ(exp::RetryPolicy{.maxAttempts = 1}.maxRetries(), 0);
}

TEST(Journal, FinalizePromotesDrainedWalWithoutAppends)
{
    const std::string dir = tempDir();
    const exp::ExperimentPlan plan = smallPlan();

    // First session: journal every point, then close() without
    // finalizing — the state a graceful SIGTERM drain exits in. The
    // complete record set now lives only in the WAL.
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir, plan));
        for (const auto& p : plan.points()) {
            exp::OutcomeRecord rec;
            rec.label = p.label;
            rec.pointFingerprint = exp::pointFingerprint(p);
            j.append(rec);
        }
        j.close();
        std::ifstream wal(j.walPath());
        EXPECT_TRUE(wal.good());
    }

    // Second session: full replay, zero appends, finalize. The
    // records must survive as the finalized journal — not be deleted
    // along with the "empty" WAL.
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir, plan));
        EXPECT_EQ(j.loadedCount(), plan.size());
        j.finalize();
        std::ifstream journal(j.journalPath());
        EXPECT_TRUE(journal.good());
        std::ifstream wal(j.walPath());
        EXPECT_FALSE(wal.good());
    }

    // Third session still replays everything.
    exp::ResultsJournal j;
    ASSERT_TRUE(j.open(dir, plan));
    EXPECT_EQ(j.loadedCount(), plan.size());
    for (const auto& p : plan.points())
        EXPECT_NE(j.find(exp::pointFingerprint(p)), nullptr);
}

} // namespace
} // namespace procoup
