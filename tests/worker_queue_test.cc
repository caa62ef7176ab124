/** @file The supervisor's per-worker lease queue (exp/worker.hh): a
 *  lost worker charges only the head it was executing, a hung head
 *  expires even when the lease queued behind it overflows the pipe,
 *  and a plan of no more points than workers gives each worker one.
 *  A worker pool outlives a plan, and a pooled worker that died
 *  between plans is replaced without a charge. The binary is its own
 *  worker: main() serves `--worker` first. */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>

#include "procoup/config/presets.hh"
#include "procoup/exp/worker.hh"
#include "procoup/support/error.hh"
#include "scoped_temp_dir.hh"

namespace procoup {
namespace {

const std::string kSource = "(defvar out 0)(defun main () (set out 42))";

struct Supervised
{
    std::map<std::string, exp::OutcomeRecord> records;
    std::vector<std::string> committed;  ///< labels in commit order
    exp::DaemonStats stats;
};

/** Supervise @p labels' points (source kSource plus the padding in
 *  @p pad) on @p pool's workers, @p workers of them, under the given
 *  lease and retry budget. */
Supervised
supervise(exp::WorkerPool& pool, const std::vector<std::string>& labels,
          const std::map<std::string, std::string>& pad, double leaseMs,
          int retries, int workers)
{
    exp::ExperimentPlan plan("queue");
    for (const std::string& label : labels) {
        const auto it = pad.find(label);
        plan.addSource(label, config::baseline(),
                       kSource + (it == pad.end() ? "" : it->second),
                       core::SimMode::Coupled);
    }
    std::vector<std::size_t> indices(plan.size());
    std::iota(indices.begin(), indices.end(), 0);
    exp::RunnerOptions ropts;
    exp::CompileCache cache;
    exp::SupervisorOptions sopts;
    sopts.leaseMs = leaseMs;
    sopts.retryPolicy.maxAttempts = retries + 1;
    sopts.workers = workers;
    Supervised s;
    std::mutex mu;  // commit runs on every supervising thread
    s.stats = exp::superviseWorkers(
        pool, plan, indices, {}, ropts, cache, sopts,
        [&](std::size_t i, exp::OutcomeRecord&& rec, std::string_view) {
            std::lock_guard<std::mutex> lock(mu);
            s.committed.push_back(plan.points()[i].label);
            s.records[s.committed.back()] = std::move(rec);
        });
    return s;
}

/** supervise() on a pool of its own, as --isolate-workers runs. */
Supervised
supervise(const std::vector<std::string>& labels,
          const std::map<std::string, std::string>& pad, double leaseMs,
          int retries, int workers = 1)
{
    exp::WorkerPool pool;
    return supervise(pool, labels, pad, leaseMs, retries, workers);
}

/** The worker pids PROCOUP_TEST_WORKER_SPAWN_LOG recorded at @p path. */
std::vector<pid_t>
spawned(const std::string& path)
{
    std::vector<pid_t> pids;
    std::ifstream in(path);
    for (pid_t pid; in >> pid;)
        pids.push_back(pid);
    return pids;
}

void
expectHealthy(const Supervised& s, const std::string& label)
{
    const exp::OutcomeRecord& rec = s.records.at(label);
    EXPECT_FALSE(rec.failed) << label << ": " << rec.error;
    EXPECT_EQ(rec.retries, 0u) << label;
}

TEST(WorkerQueue, OnlyTheHeadOfALostWorkerIsCharged)
{
    // "crash" kills its worker twice, each time with "a" queued behind
    // it; "a" is reissued uncharged, so its record matches a local run.
    ::setenv("PROCOUP_TEST_WORKER_CRASH_LABEL", "crash", 1);
    const Supervised s = supervise({"crash", "a", "b"}, {}, 30000.0, 1);
    ::unsetenv("PROCOUP_TEST_WORKER_CRASH_LABEL");

    const exp::OutcomeRecord& bad = s.records.at("crash");
    EXPECT_TRUE(bad.failed);
    EXPECT_EQ(bad.errorKind,
              static_cast<std::uint8_t>(SimErrorKind::WorkerCrash));
    EXPECT_EQ(bad.retries, 1u);
    expectHealthy(s, "a");
    expectHealthy(s, "b");
    // Leases: crash+a, crash+a again, then a+b on a third worker.
    EXPECT_EQ(s.stats.leasesIssued, 6u);
    EXPECT_EQ(s.stats.leasesReassigned, 1u);
    EXPECT_EQ(s.stats.leasesExpired, 0u);
    EXPECT_EQ(s.stats.workerLost, 1u);
}

TEST(WorkerQueue, HungHeadExpiresWithAnOversizedLeaseQueued)
{
    // The lease behind the hung head is larger than a pipe buffer: a
    // supervisor that blocked writing it would never see the head's
    // deadline pass.
    std::string comment = "\n";
    while (comment.size() < 256 * 1024)
        comment += "; padding the source past a pipe buffer\n";
    ::setenv("PROCOUP_TEST_WORKER_HANG_LABEL", "hang", 1);
    const Supervised s = supervise({"hang", "big", "small"},
                                   {{"big", comment}}, 500.0, 0);
    ::unsetenv("PROCOUP_TEST_WORKER_HANG_LABEL");

    const exp::OutcomeRecord& bad = s.records.at("hang");
    EXPECT_TRUE(bad.failed);
    EXPECT_EQ(bad.errorKind,
              static_cast<std::uint8_t>(SimErrorKind::WorkerTimeout));
    EXPECT_EQ(bad.retries, 0u);
    expectHealthy(s, "big");
    expectHealthy(s, "small");
    // Leases: hang+big, then big+small on a second worker.
    EXPECT_EQ(s.stats.leasesIssued, 4u);
    EXPECT_EQ(s.stats.leasesExpired, 1u);
    EXPECT_EQ(s.stats.leasesReassigned, 0u);
    EXPECT_EQ(s.stats.workerLost, 1u);
}

TEST(WorkerQueue, FewPointsSpreadOverEveryWorker)
{
    // As many points as workers: each worker takes one lease, so no
    // point waits in a pipe behind the hung one, wherever it sits.
    // Eight threads start one after another slowly enough that,
    // queueing two leases each, the first ones would take them all.
    const std::vector<std::string> names = {"a", "b", "c", "d",
                                            "e", "f", "g", "h"};
    for (std::size_t pos = 0; pos < names.size(); ++pos) {
        std::vector<std::string> labels = names;
        labels[pos] = "hang";
        ::setenv("PROCOUP_TEST_WORKER_HANG_LABEL", "hang", 1);
        const Supervised s = supervise(labels, {}, 300.0, 0, 8);
        ::unsetenv("PROCOUP_TEST_WORKER_HANG_LABEL");

        EXPECT_TRUE(s.records.at("hang").failed) << pos;
        for (const std::string& label : labels)
            if (label != "hang")
                expectHealthy(s, label);
        ASSERT_EQ(s.committed.size(), names.size()) << pos;
        EXPECT_EQ(s.committed.back(), "hang") << pos;
        EXPECT_EQ(s.stats.leasesIssued, names.size()) << pos;
        EXPECT_EQ(s.stats.leasesExpired, 1u) << pos;
        EXPECT_EQ(s.stats.leasesReassigned, 0u) << pos;
    }
}

TEST(WorkerQueue, PoolOutlivesAPlan)
{
    // One worker, so that which thread claims a point cannot decide
    // whether a slot spawns: the second plan runs on the first's worker.
    const testutil::ScopedTempDir tmp("procoup_pool");
    const std::string log = tmp.path() + "/spawns";
    ::setenv("PROCOUP_TEST_WORKER_SPAWN_LOG", log.c_str(), 1);
    exp::WorkerPool pool;
    const Supervised first = supervise(pool, {"a", "b"}, {}, 30000.0, 0, 1);
    const std::vector<pid_t> workers = spawned(log);
    const Supervised second = supervise(pool, {"c", "d"}, {}, 30000.0, 0, 1);
    ::unsetenv("PROCOUP_TEST_WORKER_SPAWN_LOG");

    EXPECT_EQ(workers.size(), 1u);
    EXPECT_EQ(spawned(log), workers);
    expectHealthy(first, "a");
    expectHealthy(first, "b");
    expectHealthy(second, "c");
    expectHealthy(second, "d");
    EXPECT_EQ(second.stats.leasesIssued, 2u);
}

TEST(WorkerQueue, DeadPooledWorkerIsReplacedUncharged)
{
    // A worker killed while its pool is idle is replaced when the next
    // plan starts: no point of that plan is charged for it.
    const testutil::ScopedTempDir tmp("procoup_pool");
    const std::string log = tmp.path() + "/spawns";
    ::setenv("PROCOUP_TEST_WORKER_SPAWN_LOG", log.c_str(), 1);
    exp::WorkerPool pool;
    supervise(pool, {"a", "b"}, {}, 30000.0, 1, 1);
    const std::vector<pid_t> workers = spawned(log);
    ASSERT_EQ(workers.size(), 1u);
    // Dead, and not yet reaped: the pool finds out when a plan starts.
    ASSERT_EQ(::kill(workers[0], SIGKILL), 0);
    siginfo_t info{};
    ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(workers[0]), &info,
                       WEXITED | WNOWAIT),
              0);
    const Supervised s = supervise(pool, {"c", "d"}, {}, 30000.0, 1, 1);
    ::unsetenv("PROCOUP_TEST_WORKER_SPAWN_LOG");

    EXPECT_EQ(spawned(log).size(), 2u);  // one replacement
    expectHealthy(s, "c");
    expectHealthy(s, "d");
    EXPECT_EQ(s.stats.leasesIssued, 2u);
    EXPECT_EQ(s.stats.leasesReassigned, 0u);
    EXPECT_EQ(s.stats.workerLost, 0u);
}

} // namespace
} // namespace procoup

int
main(int argc, char** argv)
{
    procoup::exp::runWorkerIfRequested(argc, argv);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
