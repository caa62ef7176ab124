#include "procoup/exp/daemon.hh"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>

#include "procoup/exp/journal.hh"
#include "procoup/exp/worker.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

namespace {

std::atomic<int> g_daemonSignal{0};

void
daemonSignalHandler(int sig)
{
    g_daemonSignal.store(sig);
}

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The streaming side of one client connection: frame sends from the
 *  plan's supervising threads, serialized. A client that hung up shows
 *  as EPIPE on the next send; later sends are dropped. */
struct ClientConn
{
    explicit ClientConn(int fd) : fd(fd) {}

    void send(const std::string& framed)
    {
        if (dead.load())
            return;
        std::lock_guard<std::mutex> lock(mu);
        if (!writeAllFd(fd, framed.data(), framed.size()))
            dead.store(true);
    }

    const int fd;
    std::mutex mu;
    std::atomic<bool> dead{false};
};

} // namespace

/** Mutable state of one submitted plan's execution. */
struct SweepDaemon::PlanSession
{
    ClientConn& conn;
    ResultsJournal& journal;
    bool journalOn;

    std::atomic<std::uint64_t> doneCount{0};
    std::atomic<bool> anyThrew{false};
    std::atomic<bool> anyVerifyFailed{false};
    std::atomic<std::uint64_t> replayed{0};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> cacheHits{0};
    std::atomic<std::uint64_t> cacheMisses{0};

    /** Journal (write-ahead!) then stream one completed record. */
    void commitRecord(std::size_t index, const OutcomeRecord& rec,
                      bool freshly_executed)
    {
        const bool verify_failure =
            rec.threw == 0 && !rec.error.empty() && !rec.failed;
        if (verify_failure)
            anyVerifyFailed.store(true);
        if (rec.threw != 0)
            anyThrew.store(true);
        // Verify failures and exceptions are never journaled: they
        // must re-execute (and re-fail) on resume, mirroring
        // SweepRunner's contract.
        if (freshly_executed && journalOn && rec.threw == 0 &&
            !verify_failure)
            journal.append(rec);
        if (freshly_executed) {
            ++executed;
            if (rec.threw == 0) {
                if (rec.compileCached)
                    ++cacheHits;
                else {
                    ++cacheMisses;
                }
            }
        }
        conn.send(kindFrame(
            FrameKind::PointResult,
            encodePointResult(index, encodeOutcomeRecord(rec))));
        ++doneCount;
    }
};

SweepDaemon::SweepDaemon(DaemonOptions options)
    : _options(std::move(options))
{
    if (_options.stateDir.empty())
        _options.stateDir = _options.socketPath + ".state";
    _options.retryPolicy.maxAttempts = _options.retries + 1;
}

void
SweepDaemon::servePlan(int fd, PlanEnvelope&& env)
{
    const auto start = std::chrono::steady_clock::now();
    const ExperimentPlan& plan = env.plan;
    RunnerOptions& ropts = env.options;
    ropts.diskCacheDir = _options.diskCacheDir;

    ResultsJournal journal;
    const bool journal_on = journal.open(_options.stateDir, plan);
    if (!journal_on)
        std::fprintf(stderr,
                     "procoupd: cannot open results journal in %s; "
                     "serving without durability\n",
                     _options.stateDir.c_str());

    ClientConn conn(fd);
    PlanSession s{conn, journal, journal_on};

    // Replay journaled points first: streamed immediately, never
    // re-executed, never recompiled.
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (journal_on) {
            if (const OutcomeRecord* rec =
                    journal.find(pointFingerprint(plan.points()[i]))) {
                ++s.replayed;
                s.commitRecord(i, *rec, /*freshly_executed=*/false);
                continue;
            }
        }
        pending.push_back(i);
    }

    DaemonStats stats;
    if (!pending.empty()) {
        // Progress heartbeats keep a slow plan's client connection
        // alive and observable.
        std::atomic<bool> ticking{true};
        std::thread ticker([&] {
            int slept = 0;
            while (ticking.load()) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                if ((slept += 50) < 1000)
                    continue;
                slept = 0;
                ByteWriter w;
                w.u64(s.doneCount.load());
                w.u64(plan.size());
                conn.send(kindFrame(FrameKind::Heartbeat, w.take()));
            }
        });

        // Serves points in-process when workers are off or cannot be
        // spawned.
        CompileCache cache;
        cache.setEnabled(ropts.cacheEnabled);
        if (!ropts.diskCacheDir.empty() && ropts.cacheEnabled)
            cache.setDiskDir(ropts.diskCacheDir);

        SupervisorOptions sopts;
        sopts.workers = SweepRunner::resolveJobs(_options.jobs);
        sopts.retryPolicy = _options.retryPolicy;
        sopts.leaseMs = _options.leaseMs;
        sopts.heartbeatMs = _options.heartbeatMs;
        sopts.inProcess = _options.inProcess;
        sopts.reportLost = true;
        stats = superviseWorkers(
            plan, pending, ropts, cache, sopts,
            [&](std::size_t i, OutcomeRecord&& rec) {
                s.commitRecord(i, rec, /*freshly_executed=*/true);
            });
        ticking.store(false);
        ticker.join();
    }

    // Publish the finalized journal only when every journalable point
    // holds a genuine record (mirrors SweepRunner::run).
    if (journal_on && !s.anyThrew.load() && !s.anyVerifyFailed.load())
        journal.finalize();

    stats.active = true;
    stats.jobs = static_cast<std::uint32_t>(
        SweepRunner::resolveJobs(_options.jobs));
    stats.resultsStreamed = s.doneCount.load();
    stats.replayed = s.replayed.load();
    stats.executed = s.executed.load();
    // compileCached=false on a freshly executed record means "this
    // point's compile really ran somewhere" — the accurate
    // cross-process compile count (worker children own their caches;
    // the daemon cannot read them, but the record can).
    stats.cacheHits = s.cacheHits.load();
    stats.cacheMisses = s.cacheMisses.load();
    stats.compiles = s.cacheMisses.load();

    conn.send(kindFrame(FrameKind::PlanDone, encodeDaemonStats(stats)));
    std::fprintf(
        stderr,
        "procoupd: plan '%s' done: %llu replayed, %llu executed, "
        "%llu worker-lost, %llu leases (%llu reassigned), %.0f ms\n",
        plan.name().c_str(),
        static_cast<unsigned long long>(stats.replayed),
        static_cast<unsigned long long>(stats.executed),
        static_cast<unsigned long long>(stats.workerLost),
        static_cast<unsigned long long>(stats.leasesIssued),
        static_cast<unsigned long long>(stats.leasesReassigned),
        msSince(start));
}

int
SweepDaemon::serve()
{
    if (_options.socketPath.empty()) {
        std::fprintf(stderr, "procoupd: --socket is required\n");
        return 1;
    }

    ::signal(SIGPIPE, SIG_IGN);
    g_daemonSignal.store(0);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = daemonSignalHandler;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    const int listen_fd = listenUnixSocket(_options.socketPath, 16);
    if (listen_fd < 0) {
        std::fprintf(stderr, "procoupd: cannot listen on %s\n",
                     _options.socketPath.c_str());
        return 1;
    }
    std::fprintf(stderr, "procoupd: serving on %s (state: %s)\n",
                 _options.socketPath.c_str(),
                 _options.stateDir.c_str());

    while (g_daemonSignal.load() == 0) {
        struct pollfd pfd = {listen_fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 250);
        if (pr < 0 && errno != EINTR)
            break;
        if (pr <= 0)
            continue;
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            continue;

        std::string payload;
        if (readFrameFromFd(fd, 10000.0, &payload) != FrameRead::Ok) {
            ::close(fd);
            continue;
        }
        FrameKind kind;
        std::string body;
        if (!splitKindPayload(payload, &kind, &body)) {
            ::close(fd);
            continue;
        }
        if (kind == FrameKind::Shutdown) {
            ::close(fd);
            break;
        }
        if (kind != FrameKind::PlanSubmit) {
            const std::string err = kindFrame(
                FrameKind::ServiceError,
                strCat("expected plan-submit, got ",
                       frameKindName(kind)));
            writeAllFd(fd, err.data(), err.size());
            ::close(fd);
            continue;
        }
        PlanEnvelope env;
        if (!decodePlanSubmit(body, &env)) {
            const std::string err = kindFrame(
                FrameKind::ServiceError,
                "malformed or self-inconsistent plan-submit body");
            writeAllFd(fd, err.data(), err.size());
            ::close(fd);
            continue;
        }
        servePlan(fd, std::move(env));
        ::close(fd);
    }

    ::close(listen_fd);
    ::unlink(_options.socketPath.c_str());
    std::fprintf(stderr, "procoupd: shut down\n");
    return 0;
}

} // namespace exp
} // namespace procoup
