/** @file Sweep-daemon wire protocol (exp/service.hh): kind-tagged
 *  frame round-trips and garbage rejection, plan-submit envelopes
 *  that preserve every point fingerprint (the keystone of daemon
 *  vs. local byte-identity) and whose bytes are pinned, rejection of
 *  bad labels, out-of-range ints and mutated bytes, result/stats
 *  bodies, and the worker-lost error-kind name the report schema
 *  depends on. Then the journal's rules end to end, on SweepRunner
 *  and on a procoupd serving in-process on a thread of this binary:
 *  which records the write-ahead log holds, when the journal is
 *  published, what a resubmission replays, and which exception the
 *  caller sees; that the daemon's in-process compile cache outlives a
 *  plan, and that a shutdown counts only when the daemon closes the
 *  connection. */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/daemon.hh"
#include "procoup/exp/journal.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"
#include "procoup/exp/serialize.hh"
#include "procoup/exp/service.hh"
#include "procoup/exp/worker.hh"
#include "procoup/fault/fault.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"
#include "scoped_temp_dir.hh"

namespace procoup {
namespace {

exp::ExperimentPlan
smallPlan()
{
    const auto machine = config::baseline();
    exp::ExperimentPlan plan("daemon-test");
    plan.addBenchmark(machine, benchmarks::byName("Matrix"),
                      core::SimMode::Coupled);
    plan.addBenchmark(machine, benchmarks::byName("Matrix"),
                      core::SimMode::Sts);
    plan.addBenchmark(machine, benchmarks::byName("LUD"),
                      core::SimMode::Coupled);
    return plan;
}

TEST(Service, FrameKindNamesAndValidity)
{
    EXPECT_EQ(exp::frameKindName(exp::FrameKind::PlanSubmit),
              "plan-submit");
    EXPECT_EQ(exp::frameKindName(exp::FrameKind::PointLease),
              "point-lease");
    EXPECT_EQ(exp::frameKindName(exp::FrameKind::PointResult),
              "point-result");
    EXPECT_EQ(exp::frameKindName(exp::FrameKind::Heartbeat),
              "heartbeat");
    EXPECT_EQ(exp::frameKindName(exp::FrameKind::Shutdown),
              "shutdown");
    EXPECT_EQ(exp::frameKindName(exp::FrameKind::PlanDone),
              "plan-done");
    EXPECT_EQ(exp::frameKindName(exp::FrameKind::ServiceError),
              "service-error");

    // Tag 5 stays unassigned: older clients ack with it.
    for (int tag = 1; tag <= 8; ++tag)
        EXPECT_EQ(exp::frameKindValid(static_cast<std::uint8_t>(tag)),
                  tag != 5) << tag;
    EXPECT_FALSE(exp::frameKindValid(0));
    for (int tag = 9; tag <= 255; ++tag)
        EXPECT_FALSE(exp::frameKindValid(
            static_cast<std::uint8_t>(tag))) << tag;
}

TEST(Service, KindFrameRoundTripAndGarbageRejection)
{
    const std::string body = "lease body bytes";
    const std::string bytes =
        exp::kindFrame(exp::FrameKind::PointLease, body);

    std::size_t offset = 0;
    std::string payload;
    ASSERT_TRUE(exp::readFrame(bytes, offset, &payload));
    EXPECT_EQ(offset, bytes.size());

    exp::FrameKind kind;
    std::string got;
    ASSERT_TRUE(exp::splitKindPayload(payload, &kind, &got));
    EXPECT_EQ(kind, exp::FrameKind::PointLease);
    EXPECT_EQ(got, body);

    // Empty payloads and unknown tags are rejected, not misread.
    EXPECT_FALSE(exp::splitKindPayload("", &kind, &got));
    std::string evil = payload;
    evil[0] = static_cast<char>(0x2A);
    EXPECT_FALSE(exp::splitKindPayload(evil, &kind, &got));
}

TEST(Service, PlanSubmitPreservesFingerprintsAndKnobs)
{
    exp::ExperimentPlan plan = smallPlan();
    // Give one point a fault plan and tuned budgets so the codec has
    // to carry the full SimOptions surface, not just defaults.
    auto& tuned = plan.mutablePoints()[1];
    tuned.simOptions.faults =
        fault::FaultPlan::atIntensity(0.5, 20260808);
    tuned.simOptions.limits.maxCycles = 123456;
    tuned.simOptions.sanitizeEveryCycles = 64;

    exp::RunnerOptions ropts;
    ropts.cacheEnabled = false;
    ropts.failSafe = true;
    ropts.retryFaulted = true;
    ropts.retryPolicy.maxAttempts = 5;

    const std::string body = exp::encodePlanSubmit(plan, ropts);
    exp::PlanEnvelope env;
    ASSERT_TRUE(exp::decodePlanSubmit(body, &env));

    EXPECT_FALSE(env.options.cacheEnabled);
    EXPECT_TRUE(env.options.failSafe);
    EXPECT_TRUE(env.options.retryFaulted);
    EXPECT_EQ(env.options.retryPolicy.maxAttempts, 5);
    EXPECT_FALSE(env.options.exitOnVerifyFailure);

    // The keystone of daemon/local byte-identity: every decoded
    // point hashes to the same fingerprint as the original, so the
    // daemon journals, dedups, and replays the *same* points.
    ASSERT_EQ(env.plan.points().size(), plan.points().size());
    for (std::size_t i = 0; i < plan.points().size(); ++i) {
        EXPECT_EQ(env.plan.points()[i].label, plan.points()[i].label);
        EXPECT_EQ(exp::pointFingerprint(env.plan.points()[i]),
                  exp::pointFingerprint(plan.points()[i]))
            << plan.points()[i].label;
    }
    EXPECT_EQ(exp::planFingerprint(env.plan),
              exp::planFingerprint(plan));

    EXPECT_FALSE(exp::decodePlanSubmit("garbage", &env));
    EXPECT_FALSE(exp::decodePlanSubmit("", &env));
}

/** A hand-made one-point plan whose point carries a fault plan, a
 *  cycle and wall-clock budget and a sanitizer cadence on a machine
 *  that sets every MachineConfig field. */
exp::ExperimentPlan
pinnedPlan()
{
    config::MachineConfig m;
    m.name = "pinned";
    m.clusters.resize(2);
    m.clusters[0].units = {{isa::UnitType::Integer, 1},
                           {isa::UnitType::Memory, 2}};
    m.clusters[1].units = {{isa::UnitType::Float, 3},
                           {isa::UnitType::Branch, 1}};
    m.interconnect = config::InterconnectScheme::TriPort;
    m.arbitration = config::ArbitrationPolicy::RoundRobin;
    m.memory.hitLatency = 2;
    m.memory.missRate = 0.125;
    m.memory.missPenaltyMin = 10;
    m.memory.missPenaltyMax = 40;
    m.memory.numBanks = 8;
    m.memory.modelBankConflicts = true;
    m.memory.seed = 77;
    m.opCache.enabled = true;
    m.opCache.linesPerUnit = 16;
    m.opCache.rowsPerLine = 2;
    m.opCache.missPenalty = 5;
    m.maxActiveThreads = 8;
    m.swapOutIdleCycles = 50;
    m.deadlockCycleLimit = 9000;

    exp::ExperimentPlan plan("pinned-plan");
    exp::SweepPoint& p = plan.addSource(
        "pinned-point", m, "(defvar out 0)(defun main () (set out 42))",
        core::SimMode::Tpe);
    p.options.mode = sched::ScheduleMode::Single;
    p.options.forkClones = 2;
    p.options.runOptimizer = false;
    p.verifyBenchmark = "Pinned";
    p.benchmarkId = 3;
    p.traceStalls = true;
    fault::FaultPlan& f = p.simOptions.faults;
    f.enabled = true;
    f.seed = 20260808;
    f.memJitterProb = 0.25;
    f.memJitterMax = 6;
    f.memBurstProb = 0.125;
    f.memBurstLength = 4;
    f.memBurstPenalty = 32;
    f.bankStormProb = 0.0625;
    f.bankStormCycles = 16;
    f.fuBubbleProb = 0.5;
    f.fuBubbleMax = 3;
    f.opcacheFlushPeriod = 1000;
    f.spawnDelayProb = 0.75;
    f.spawnDelayMax = 12;
    p.simOptions.limits.maxCycles = 123456;
    p.simOptions.limits.wallClockDeadlineMs = 2500.0;
    p.simOptions.sanitizeEveryCycles = 64;
    return plan;
}

exp::RunnerOptions
pinnedKnobs()
{
    exp::RunnerOptions ropts;
    ropts.cacheEnabled = false;
    ropts.failSafe = true;
    ropts.retryFaulted = true;
    ropts.retryPolicy.maxAttempts = 5;
    return ropts;
}

TEST(Service, PlanSubmitBytesArePinned)
{
    // The plan-submit layout is what a client and a daemon (and a
    // supervisor and its workers) must agree on byte for byte.
    EXPECT_EQ(exp::fnv1a64Hex(
                  exp::encodePlanSubmit(pinnedPlan(), pinnedKnobs())),
              "cb4b2d67357793b0");
}

TEST(Service, PlanSubmitRejectsAnEmptyLabel)
{
    exp::ExperimentPlan plan = pinnedPlan();
    plan.mutablePoints()[0].label.clear();
    exp::PlanEnvelope env;
    EXPECT_FALSE(exp::decodePlanSubmit(
        exp::encodePlanSubmit(plan, pinnedKnobs()), &env));
}

TEST(Service, PlanSubmitRejectsARepeatedLabel)
{
    // A plan cannot hold two equal labels, so patch the second label
    // of an encoded two-point plan into a copy of the first.
    exp::ExperimentPlan plan = pinnedPlan();
    exp::SweepPoint twin = plan.points()[0];
    twin.label = "pinned-other";
    plan.add(twin);
    std::string body = exp::encodePlanSubmit(plan, pinnedKnobs());
    exp::PlanEnvelope env;
    ASSERT_TRUE(exp::decodePlanSubmit(body, &env));

    const std::size_t at = body.find(twin.label);
    ASSERT_NE(at, std::string::npos);
    body.replace(at, twin.label.size(), plan.points()[0].label);
    EXPECT_FALSE(exp::decodePlanSubmit(body, &env));
}

TEST(Service, PlanSubmitRejectsAMachineTheSimulatorCannotRun)
{
    // Each of these machines encodes to well-formed bytes but breaks a
    // rule a machine file must meet, so the decoder must reject the
    // plan. An operation cache with no lines, for one, aborts the
    // point at bind (OpCaches).
    const std::vector<void (*)(config::MachineConfig&)> breaks = {
        [](config::MachineConfig& m) { m.opCache.linesPerUnit = 0; },
        [](config::MachineConfig& m) { m.opCache.rowsPerLine = 0; },
        [](config::MachineConfig& m) { m.clusters.clear(); },
        [](config::MachineConfig& m) { m.clusters[0].units.clear(); },
        [](config::MachineConfig& m) { m.clusters[1].units.pop_back(); },
        [](config::MachineConfig& m) { m.clusters[0].units[0].latency = 0; },
        [](config::MachineConfig& m) { m.memory.missRate = 1.5; },
        [](config::MachineConfig& m) { m.memory.missPenaltyMin = 50; },
        [](config::MachineConfig& m) { m.memory.hitLatency = -3; },
        [](config::MachineConfig& m) {
            m.memory.missPenaltyMin = -5;
            m.memory.missPenaltyMax = -1;
        },
        [](config::MachineConfig& m) { m.deadlockCycleLimit = 0; },
        [](config::MachineConfig& m) { m.deadlockCycleLimit = -1; },
    };
    for (std::size_t i = 0; i < breaks.size(); ++i) {
        exp::ExperimentPlan plan = pinnedPlan();
        breaks[i](plan.mutablePoints()[0].machine);
        exp::PlanEnvelope env;
        if (exp::decodePlanSubmit(
                exp::encodePlanSubmit(plan, pinnedKnobs()), &env)) {
            ADD_FAILURE() << "break " << i << " decoded";
            // What the daemon does with a decoded plan.
            exp::SweepRunner(env.options).run(env.plan);
        }
    }
}

TEST(Service, PlanSubmitRejectsAnIntFieldOutOfRange)
{
    // forkClones travels as an i64; a value beyond int must fail the
    // decode rather than wrap.
    exp::ExperimentPlan plan = pinnedPlan();
    plan.mutablePoints()[0].options.forkClones = 0x5eed1234;
    std::string body = exp::encodePlanSubmit(plan, pinnedKnobs());
    const std::size_t at =
        body.find(std::string("\x34\x12\xed\x5e\0\0\0\0", 8));
    ASSERT_NE(at, std::string::npos);
    exp::PlanEnvelope env;
    ASSERT_TRUE(exp::decodePlanSubmit(body, &env));
    body[at + 4] = 1;
    EXPECT_FALSE(exp::decodePlanSubmit(body, &env));
}

/** Every enum of @p p holds one of its declared values. */
bool
enumsDeclared(const exp::SweepPoint& p)
{
    for (const auto& c : p.machine.clusters)
        for (const auto& u : c.units)
            if (static_cast<int>(u.type) >= isa::numUnitTypes)
                return false;
    return p.machine.interconnect <=
               config::InterconnectScheme::SharedBus &&
           p.machine.arbitration <= config::ArbitrationPolicy::RoundRobin &&
           p.mode <= core::SimMode::Coupled &&
           p.options.mode <= sched::ScheduleMode::Unrestricted;
}

TEST(Service, MutatedBodiesFailOrDecodeToDeclaredEnums)
{
    // Set each byte of a one-point plan-submit body and of a small
    // record payload to a few values. A mutant must fail to decode or
    // decode to declared enum values: an undeclared UnitType, say,
    // aborts the scheduler once the daemon runs the point.
    const unsigned char values[] = {0x00, 0x01, 0x05, 0xff};
    std::vector<std::string> bad;
    std::size_t decoded = 0;

    const std::string body =
        exp::encodePlanSubmit(pinnedPlan(), pinnedKnobs());
    for (std::size_t i = 0; i < body.size(); ++i) {
        for (const unsigned char v : values) {
            std::string mutant = body;
            mutant[i] = static_cast<char>(v);
            exp::PlanEnvelope env;
            if (!exp::decodePlanSubmit(mutant, &env))
                continue;
            ++decoded;
            for (const auto& p : env.plan.points())
                if (!enumsDeclared(p))
                    bad.push_back(strCat("plan-submit byte ", i, " = ",
                                         static_cast<int>(v)));
        }
    }

    exp::OutcomeRecord rec;
    rec.label = "point";
    rec.pointFingerprint = "0123456789abcdef";
    rec.threw = 1;
    rec.errorKind = static_cast<std::uint8_t>(SimErrorKind::Deadlock);
    rec.error = "deadlock";
    rec.memory = {isa::Value::makeInt(3)};
    const std::string payload = exp::encodeOutcomeRecord(rec);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        for (const unsigned char v : values) {
            std::string mutant = payload;
            mutant[i] = static_cast<char>(v);
            exp::OutcomeRecord back;
            if (!exp::decodeOutcomeRecord(mutant, &back))
                continue;
            ++decoded;
            if (back.threw > 3 ||
                back.errorKind >
                    static_cast<std::uint8_t>(SimErrorKind::WorkerLost))
                bad.push_back(strCat("record byte ", i, " = ",
                                     static_cast<int>(v)));
        }
    }

    EXPECT_GT(decoded, 0u);  // most bytes are payload, e.g. source text
    EXPECT_TRUE(bad.empty()) << bad.size() << " mutants, first: "
                             << (bad.empty() ? "" : bad.front());
}

TEST(Service, PlanSubmitRejectsTraceSinks)
{
    exp::ExperimentPlan plan = smallPlan();
    plan.mutablePoints()[0].tracer = [](const sim::TraceEvent&) {};
    exp::RunnerOptions ropts;
    EXPECT_THROW(exp::encodePlanSubmit(plan, ropts), CompileError);
}

TEST(Service, PointResultRoundTrip)
{
    exp::OutcomeRecord rec;
    rec.label = "Matrix/SEQ@baseline";
    rec.pointFingerprint = "0123456789abcdef";
    rec.failed = true;
    rec.errorKind =
        static_cast<std::uint8_t>(SimErrorKind::WorkerLost);
    rec.error = "lease expired";
    rec.retries = 3;

    const std::string body =
        exp::encodePointResult(7, exp::encodeOutcomeRecord(rec));

    std::uint64_t index = 0;
    std::string rec_payload;
    ASSERT_TRUE(exp::decodePointResult(body, &index, &rec_payload));
    EXPECT_EQ(index, 7u);

    exp::OutcomeRecord back;
    ASSERT_TRUE(exp::decodeOutcomeRecord(rec_payload, &back));
    EXPECT_EQ(back.label, rec.label);
    EXPECT_EQ(back.pointFingerprint, rec.pointFingerprint);
    EXPECT_TRUE(back.failed);
    EXPECT_EQ(back.errorKind, rec.errorKind);
    EXPECT_EQ(back.retries, 3);

    EXPECT_FALSE(exp::decodePointResult("garbage", &index,
                                        &rec_payload));
}

TEST(Service, DaemonStatsRoundTrip)
{
    exp::DaemonStats stats;
    stats.active = true;
    stats.jobs = 4;
    stats.leasesIssued = 10;
    stats.leasesExpired = 2;
    stats.leasesReassigned = 3;
    stats.heartbeats = 99;
    stats.workerLost = 1;
    stats.resultsStreamed = 12;
    stats.replayed = 5;
    stats.executed = 7;
    stats.reconnects = 2;
    stats.cacheHits = 6;
    stats.cacheMisses = 1;
    stats.compiles = 1;

    exp::DaemonStats back;
    ASSERT_TRUE(exp::decodeDaemonStats(exp::encodeDaemonStats(stats),
                                       &back));
    EXPECT_EQ(back.jobs, 4u);
    EXPECT_EQ(back.leasesIssued, 10u);
    EXPECT_EQ(back.leasesExpired, 2u);
    EXPECT_EQ(back.leasesReassigned, 3u);
    EXPECT_EQ(back.heartbeats, 99u);
    EXPECT_EQ(back.workerLost, 1u);
    EXPECT_EQ(back.resultsStreamed, 12u);
    EXPECT_EQ(back.replayed, 5u);
    EXPECT_EQ(back.executed, 7u);
    EXPECT_EQ(back.reconnects, 2u);
    EXPECT_EQ(back.cacheHits, 6u);
    EXPECT_EQ(back.cacheMisses, 1u);
    EXPECT_EQ(back.compiles, 1u);

    EXPECT_FALSE(exp::decodeDaemonStats("garbage", &back));
}

TEST(Service, WorkerLostKindNameMatchesReportSchema)
{
    // scripts/check_stats_schema.py pins this spelling in its
    // ERROR_KINDS taxonomy; the sweep report emits it verbatim.
    EXPECT_EQ(simErrorKindName(SimErrorKind::WorkerLost),
              "worker-lost");
}

// ---- The journal's rules end to end ------------------------------------

const char* const kTiny = "(defvar out 0)(defun main () (set out 42))";

/** procoupd on a thread of this process, serving points in-process,
 *  its socket and state directory in a scoped temporary directory. */
class InProcessDaemon
{
  public:
    InProcessDaemon() : _dir("procoup_daemon")
    {
        exp::DaemonOptions o;
        o.socketPath = _dir.path() + "/d.sock";
        o.stateDir = _dir.path() + "/state";
        o.jobs = 2;
        o.inProcess = true;
        _socket = o.socketPath;
        _stateDir = o.stateDir;
        _thread = std::thread([this, o] {
            _exitCode = exp::SweepDaemon(o).serve();
            _exited = true;
        });
    }

    ~InProcessDaemon()
    {
        while (!_exited && !exp::requestDaemonShutdown(_socket))
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        _thread.join();
        EXPECT_EQ(_exitCode, 0);
    }

    /** Submit @p plan as a --connect client whose verification
     *  failures come back as data. */
    exp::SweepResult submit(const exp::ExperimentPlan& plan) const
    {
        exp::ClientOptions co;
        co.socketPath = _socket;
        co.totalTimeoutMs = 60000.0;
        co.exitOnVerifyFailure = false;
        return exp::runPlanOverSocket(plan, exp::RunnerOptions{}, co);
    }

    /** One shutdown request; true if the daemon acknowledged it. */
    bool stop() const { return exp::requestDaemonShutdown(_socket); }

    bool alive() const { return !_exited; }
    const std::string& stateDir() const { return _stateDir; }

  private:
    testutil::ScopedTempDir _dir;
    std::string _socket;
    std::string _stateDir;
    std::atomic<bool> _exited{false};
    int _exitCode = -1;
    std::thread _thread;
};

/** SweepRunner journaling into @p dir, verification failures as data. */
exp::SweepResult
runLocal(const exp::ExperimentPlan& plan, const std::string& dir)
{
    exp::RunnerOptions o;
    o.jobs = 2;
    o.journalDir = dir;
    o.exitOnVerifyFailure = false;
    return exp::SweepRunner(o).run(plan);
}

/** The labels of the records in the journal file @p path (a write-ahead
 *  log or a published journal), sorted; empty if it is absent. */
std::vector<std::string>
recordLabels(const std::string& path)
{
    std::vector<std::string> labels;
    std::string bytes;
    if (!exp::readWholeFile(path, &bytes))
        return labels;
    std::size_t offset = 0;
    std::string payload;
    while (exp::readFrame(bytes, offset, &payload)) {
        exp::OutcomeRecord rec;
        if (exp::decodeOutcomeRecord(payload, &rec))
            labels.push_back(rec.label);
    }
    std::sort(labels.begin(), labels.end());
    return labels;
}

/** What a journal directory holds for @p plan. */
struct JournalFiles
{
    std::vector<std::string> wal;  ///< labels in <plan-fp>.wal
    bool published = false;        ///< <plan-fp>.journal exists
    std::vector<std::string> journal;
};

JournalFiles
journalFiles(const std::string& dir, const exp::ExperimentPlan& plan)
{
    const std::string base = dir + "/" + exp::planFingerprint(plan);
    JournalFiles f;
    f.wal = recordLabels(base + ".wal");
    f.published = std::filesystem::exists(base + ".journal");
    f.journal = recordLabels(base + ".journal");
    return f;
}

/** A plan of the clean point "clean" plus @p extra. */
exp::ExperimentPlan
rulePlan(const std::string& name, const std::string& extraLabel,
         const std::string& extraSource, const std::string& verifyAs)
{
    exp::ExperimentPlan plan(name);
    plan.addSource("clean", config::baseline(), kTiny,
                   core::SimMode::Coupled);
    plan.addSource(extraLabel, config::baseline(), extraSource,
                   core::SimMode::Coupled)
        .verifyBenchmark = verifyAs;
    return plan;
}

TEST(JournalRules, CleanPlanIsPublishedAndReplaysWhole)
{
    exp::ExperimentPlan plan("rules-clean");
    plan.addSource("clean", config::baseline(), kTiny,
                   core::SimMode::Coupled);
    plan.addSource("clean-sts", config::baseline(), kTiny,
                   core::SimMode::Sts);
    plan.addBenchmark(config::baseline(), benchmarks::byName("Matrix"),
                      core::SimMode::Coupled);
    const std::vector<std::string> all = {"Matrix/Coupled@baseline",
                                          "clean", "clean-sts"};

    const testutil::ScopedTempDir local("procoup_rules");
    EXPECT_EQ(runLocal(plan, local.path()).replayedPoints, 0u);
    JournalFiles f = journalFiles(local.path(), plan);
    EXPECT_TRUE(f.wal.empty());
    EXPECT_TRUE(f.published);
    EXPECT_EQ(f.journal, all);
    EXPECT_EQ(runLocal(plan, local.path()).replayedPoints, 3u);
    f = journalFiles(local.path(), plan);
    EXPECT_TRUE(f.wal.empty());
    EXPECT_EQ(f.journal, all);

    const InProcessDaemon d;
    exp::SweepResult r = d.submit(plan);
    EXPECT_EQ(r.daemon.replayed, 0u);
    EXPECT_EQ(r.daemon.executed, 3u);
    f = journalFiles(d.stateDir(), plan);
    EXPECT_TRUE(f.wal.empty());
    EXPECT_TRUE(f.published);
    EXPECT_EQ(f.journal, all);
    r = d.submit(plan);
    EXPECT_EQ(r.daemon.replayed, 3u);
    EXPECT_EQ(r.daemon.executed, 0u);
    EXPECT_EQ(journalFiles(d.stateDir(), plan).journal, all);
}

TEST(JournalRules, VerificationFailureStaysOutOfTheJournal)
{
    // A Matrix result array left at zero: mc[0][0] = 0, expected 1.875.
    const exp::ExperimentPlan plan = rulePlan(
        "rules-verify-failure", "wrong-mc",
        "(defarray mc (81))(defvar out 0)(defun main () (set out 1))",
        "Matrix");
    const std::vector<std::string> clean = {"clean"};

    const testutil::ScopedTempDir local("procoup_rules");
    exp::SweepResult r = runLocal(plan, local.path());
    EXPECT_EQ(r.replayedPoints, 0u);
    EXPECT_NE(r.at("wrong-mc").error.find("mc[0][0] = 0, expected 1.875"),
              std::string::npos)
        << r.at("wrong-mc").error;
    JournalFiles f = journalFiles(local.path(), plan);
    EXPECT_EQ(f.wal, clean);
    EXPECT_FALSE(f.published);
    r = runLocal(plan, local.path());
    EXPECT_EQ(r.replayedPoints, 1u);
    EXPECT_TRUE(r.at("clean").replayed);
    EXPECT_FALSE(r.at("wrong-mc").error.empty());
    f = journalFiles(local.path(), plan);
    EXPECT_EQ(f.wal, clean);
    EXPECT_FALSE(f.published);

    const InProcessDaemon d;
    r = d.submit(plan);
    EXPECT_EQ(r.daemon.replayed, 0u);
    EXPECT_EQ(r.daemon.executed, 2u);
    EXPECT_FALSE(r.at("wrong-mc").error.empty());
    f = journalFiles(d.stateDir(), plan);
    EXPECT_EQ(f.wal, clean);
    EXPECT_FALSE(f.published);
    r = d.submit(plan);
    EXPECT_EQ(r.daemon.replayed, 1u);
    EXPECT_EQ(r.daemon.executed, 1u);
    f = journalFiles(d.stateDir(), plan);
    EXPECT_EQ(f.wal, clean);
    EXPECT_FALSE(f.published);
}

TEST(JournalRules, PointThatThrowsStaysOutOfTheJournal)
{
    // Verified as Matrix, but the program has no mc: "unknown symbol".
    const exp::ExperimentPlan plan =
        rulePlan("rules-throw", "no-mc", kTiny, "Matrix");
    const std::vector<std::string> clean = {"clean"};

    const testutil::ScopedTempDir local("procoup_rules");
    for (int run = 0; run < 2; ++run) {
        EXPECT_THROW(runLocal(plan, local.path()), CompileError) << run;
        const JournalFiles f = journalFiles(local.path(), plan);
        EXPECT_EQ(f.wal, clean) << run;
        EXPECT_FALSE(f.published) << run;
    }

    const InProcessDaemon d;
    for (int run = 0; run < 2; ++run) {
        EXPECT_THROW(d.submit(plan), CompileError) << run;
        const JournalFiles f = journalFiles(d.stateDir(), plan);
        EXPECT_EQ(f.wal, clean) << run;
        EXPECT_FALSE(f.published) << run;
    }
    EXPECT_TRUE(d.alive());
}

TEST(Journal, UndecodableRecordIsDroppedAtOpen)
{
    exp::ExperimentPlan plan("undecodable");
    plan.addSource("clean", config::baseline(), kTiny,
                   core::SimMode::Coupled);
    plan.addSource("broken", config::baseline(), kTiny,
                   core::SimMode::Sts);
    const std::string base = exp::planFingerprint(plan);

    // The records a clean local run journals, as a write-ahead log in
    // which "broken"'s frame holds but its record, one byte longer,
    // does not decode.
    const testutil::ScopedTempDir ref("procoup_rules");
    runLocal(plan, ref.path());
    std::string bytes, wal, payload;
    ASSERT_TRUE(
        exp::readWholeFile(ref.path() + "/" + base + ".journal", &bytes));
    for (std::size_t offset = 0; exp::readFrame(bytes, offset, &payload);) {
        exp::OutcomeRecord rec;
        ASSERT_TRUE(exp::decodeOutcomeRecord(payload, &rec));
        if (rec.label == "broken")
            payload += '\0';
        wal += exp::frame(payload);
    }
    auto seed = [&](const std::string& dir) {
        std::filesystem::create_directories(dir);
        ASSERT_TRUE(exp::atomicWriteFile(dir + "/" + base + ".wal", wal));
    };

    const testutil::ScopedTempDir local("procoup_rules");
    seed(local.path());
    const exp::SweepResult r = runLocal(plan, local.path());
    EXPECT_EQ(r.replayedPoints, 1u);
    EXPECT_TRUE(r.at("clean").replayed);
    EXPECT_FALSE(r.at("broken").replayed);
    EXPECT_FALSE(r.at("broken").failed);

    // A daemon never streams it: a client that cannot decode a record
    // drops the connection, and would reconnect.
    const InProcessDaemon d;
    seed(d.stateDir());
    const exp::SweepResult served = d.submit(plan);
    EXPECT_EQ(served.daemon.replayed, 1u);
    EXPECT_EQ(served.daemon.executed, 1u);
    EXPECT_EQ(served.daemon.reconnects, 0u);
}

/** A point verified as Sort whose sa holds one element, -8: the first
 *  word matches the reference and the check then reads sa[1]. */
exp::ExperimentPlan
shortSortPlan()
{
    exp::ExperimentPlan plan("short-sa");
    plan.addSource("short-sa", config::baseline(),
                   "(defarray sa (1) :int :init (-8))"
                   "(defvar out 0)(defun main () (set out 1))",
                   core::SimMode::Coupled)
        .verifyBenchmark = "Sort";
    return plan;
}

TEST(Service, VerificationReadPastASymbolRaisesCompileError)
{
    // A plan-submit carries the verification name and the source as
    // free fields, so the decoder accepts this point.
    exp::PlanEnvelope env;
    ASSERT_TRUE(exp::decodePlanSubmit(
        exp::encodePlanSubmit(shortSortPlan(), exp::RunnerOptions{}),
        &env));
    try {
        exp::SweepRunner(env.options).run(env.plan);
        ADD_FAILURE() << "no CompileError";
    } catch (const CompileError& e) {
        EXPECT_STREQ(e.what(),
                     "offset 1 out of range for symbol sa of size 1");
    }
}

TEST(Service, DaemonSurvivesAVerificationReadPastASymbol)
{
    const InProcessDaemon d;
    EXPECT_THROW(d.submit(shortSortPlan()), CompileError);
    EXPECT_TRUE(d.alive());
    exp::ExperimentPlan next("after-short-sa");
    next.addSource("clean", config::baseline(), kTiny,
                   core::SimMode::Coupled);
    EXPECT_EQ(d.submit(next).daemon.executed, 1u);
}

TEST(Service, InProcessCacheOutlivesAPlan)
{
    // Matrix/Coupled compiles in the first plan and is a hit in the
    // second, which compiles only Matrix/STS; a daemon that built a
    // cache per plan compiled both again.
    const auto machine = config::baseline();
    exp::ExperimentPlan first("cache-first");
    first.addBenchmark(machine, benchmarks::byName("Matrix"),
                       core::SimMode::Coupled);
    exp::ExperimentPlan second("cache-second");
    second.addBenchmark(machine, benchmarks::byName("Matrix"),
                        core::SimMode::Coupled);
    second.addBenchmark(machine, benchmarks::byName("Matrix"),
                        core::SimMode::Sts);

    const InProcessDaemon d;
    EXPECT_EQ(d.submit(first).daemon.compiles, 1u);
    const exp::DaemonStats stats = d.submit(second).daemon;
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_EQ(stats.cacheHits, 1u);
}

TEST(Service, ShutdownNeedsTheDaemonToCloseTheConnection)
{
    // A listener that answers the shutdown frame with a frame of its
    // own has not acknowledged it.
    const testutil::ScopedTempDir dir("procoup_shutdown");
    const std::string sock = dir.path() + "/d.sock";
    const int listen_fd = exp::listenUnixSocket(sock, 1);
    ASSERT_GE(listen_fd, 0);
    std::thread answer([listen_fd] {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        std::string payload;
        exp::readFrameFromFd(fd, 5000.0, &payload);
        const std::string reply =
            exp::kindFrame(exp::FrameKind::ServiceError, "busy");
        exp::writeAllFd(fd, reply.data(), reply.size());
        ::close(fd);
    });
    EXPECT_FALSE(exp::requestDaemonShutdown(sock));
    answer.join();
    ::close(listen_fd);

    // A daemon closes it once its workers are reaped.
    const InProcessDaemon d;
    exp::ExperimentPlan plan("before-stop");
    plan.addSource("clean", config::baseline(), kTiny,
                   core::SimMode::Coupled);
    EXPECT_EQ(d.submit(plan).daemon.executed, 1u);
    EXPECT_TRUE(d.stop());
}

} // namespace
} // namespace procoup
