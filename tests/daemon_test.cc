/** @file Sweep-daemon wire protocol (exp/service.hh): kind-tagged
 *  frame round-trips and garbage rejection, plan-submit envelopes
 *  that preserve every point fingerprint (the keystone of daemon
 *  vs. local byte-identity) and whose bytes are pinned, rejection of
 *  bad labels, out-of-range ints and mutated bytes, result/stats
 *  bodies, and the worker-lost error-kind name the report schema
 *  depends on. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/journal.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"
#include "procoup/exp/serialize.hh"
#include "procoup/exp/service.hh"
#include "procoup/fault/fault.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

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

} // namespace
} // namespace procoup
