/** @file Sweep-daemon wire protocol (exp/service.hh): kind-tagged
 *  frame round-trips and garbage rejection, plan-submit envelopes
 *  that preserve every point fingerprint (the keystone of daemon
 *  vs. local byte-identity), result/stats bodies, and the
 *  worker-lost error-kind name the report schema depends on. */

#include <gtest/gtest.h>

#include <string>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/journal.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"
#include "procoup/exp/serialize.hh"
#include "procoup/exp/service.hh"
#include "procoup/fault/fault.hh"
#include "procoup/support/error.hh"

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
    EXPECT_EQ(exp::frameKindName(exp::FrameKind::StreamAck),
              "stream-ack");
    EXPECT_EQ(exp::frameKindName(exp::FrameKind::Shutdown),
              "shutdown");
    EXPECT_EQ(exp::frameKindName(exp::FrameKind::PlanDone),
              "plan-done");
    EXPECT_EQ(exp::frameKindName(exp::FrameKind::ServiceError),
              "service-error");

    for (int tag = 1; tag <= 8; ++tag)
        EXPECT_TRUE(exp::frameKindValid(
            static_cast<std::uint8_t>(tag))) << tag;
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
    stats.acksReceived = 11;
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
    EXPECT_EQ(back.acksReceived, 11u);
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
