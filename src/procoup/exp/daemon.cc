#include "procoup/exp/daemon.hh"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
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

/** A lease asks its worker for this many heartbeats: a healthy point
 *  renews its lease long before the deadline, whatever --lease-ms. */
constexpr double kHeartbeatsPerLease = 4.0;

/** One submitted plan's client connection and counts. The plan's
 *  supervising threads stream through it, serialized; a client that
 *  hung up shows as EPIPE on the next send, and later sends are
 *  dropped. */
struct PlanSession
{
    explicit PlanSession(int fd) : fd(fd) {}

    const int fd;
    std::mutex mu;
    std::atomic<bool> dead{false};
    std::atomic<std::uint64_t> replayed{0};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> cacheHits{0};
    std::atomic<std::uint64_t> cacheMisses{0};

    /** Points streamed so far. */
    std::uint64_t done() const { return replayed.load() + executed.load(); }

    void send(const std::string& framed)
    {
        if (dead.load())
            return;
        std::lock_guard<std::mutex> lock(mu);
        if (!writeAllFd(fd, framed.data(), framed.size()))
            dead.store(true);
    }

    /** Stream and count one completed record, given as its encoding
     *  @p bytes: replayed, or freshly executed as @p fresh. */
    void stream(std::size_t index, std::string_view bytes,
                const OutcomeRecord* fresh)
    {
        send(kindFrame(FrameKind::PointResult,
                       encodePointResult(index, bytes)));
        if (!fresh) {
            ++replayed;
        } else {
            ++executed;
            if (fresh->threw == 0)
                ++(fresh->compileCached ? cacheHits : cacheMisses);
        }
    }
};

} // namespace

SweepDaemon::SweepDaemon(DaemonOptions options)
    : _options(std::move(options))
{
    if (_options.stateDir.empty())
        _options.stateDir = _options.socketPath + ".state";
}

void
SweepDaemon::servePlan(int fd, PlanEnvelope&& env, WorkerPool& pool,
                       CompileCache& cache, const SupervisorOptions& sopts)
{
    const auto start = std::chrono::steady_clock::now();
    const ExperimentPlan& plan = env.plan;
    RunnerOptions& ropts = env.options;
    ropts.diskCacheDir = _options.diskCacheDir;

    ResultsJournal journal;
    if (!journal.open(_options.stateDir, plan))
        std::fprintf(stderr,
                     "procoupd: cannot open results journal in %s; "
                     "serving without durability\n",
                     _options.stateDir.c_str());

    PlanSession s(fd);

    // Replay journaled points first: streamed immediately, never
    // re-executed, never recompiled.
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (const std::string_view rec = journal.replay(i); !rec.empty())
            s.stream(i, rec, /*fresh=*/nullptr);
        else
            pending.push_back(i);
    }

    DaemonStats stats;
    if (!pending.empty()) {
        // Progress heartbeats keep a slow plan's client connection
        // alive and observable, one a second until the end of this
        // block stops the ticker; the stop wakes its wait at once.
        // The mutex guards nothing: the wait takes one.
        std::jthread ticker([&](std::stop_token stop) {
            std::mutex mu;
            std::condition_variable_any tick;
            std::unique_lock<std::mutex> lock(mu);
            while (!tick.wait_for(lock, stop, std::chrono::seconds(1),
                                  [] { return false; }) &&
                   !stop.stop_requested()) {
                ByteWriter w;
                w.u64(s.done());
                w.u64(plan.size());
                s.send(kindFrame(FrameKind::Heartbeat, w.take()));
            }
        });

        // The plan's knobs, as a worker takes them from each lease.
        cache.configure(ropts.cacheEnabled, ropts.diskCacheDir);
        stats = superviseWorkers(
            pool, plan, pending, journal.fingerprints(), ropts, cache,
            sopts,
            [&](std::size_t i, OutcomeRecord&& rec, std::string_view bytes) {
                // Write-ahead: journaled before it is streamed.
                journal.commit(i, rec, bytes);
                s.stream(i, bytes, &rec);
            });
    }
    journal.finalize();

    stats.active = true;
    stats.jobs = static_cast<std::uint32_t>(sopts.workers);
    stats.resultsStreamed = s.done();
    stats.replayed = s.replayed.load();
    stats.executed = s.executed.load();
    // compileCached=false on a freshly executed record means "this
    // point's compile really ran somewhere" — the accurate
    // cross-process compile count (worker children own their caches;
    // the daemon cannot read them, but the record can).
    stats.cacheHits = s.cacheHits.load();
    stats.cacheMisses = s.cacheMisses.load();
    stats.compiles = s.cacheMisses.load();

    s.send(kindFrame(FrameKind::PlanDone, encodeDaemonStats(stats)));
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

    // Built once for every plan: the supervisor options, the compile
    // cache of the points served in-process (--no-workers, or no
    // worker could be spawned), and the workers, spawned when a plan
    // first needs them and reaped before the shutdown connection
    // closes, so that `procoupd --stop` returns with none left.
    const SupervisorOptions sopts{
        .workers = SweepRunner::resolveJobs(_options.jobs),
        .retryPolicy = _options.retryPolicy,
        .leaseMs = _options.leaseMs,
        .heartbeatMs = _options.leaseMs / kHeartbeatsPerLease,
        .inProcess = _options.inProcess,
        .reportLost = true};
    CompileCache cache;
    std::optional<WorkerPool> pool(std::in_place);
    int stop_fd = -1;
    while (g_daemonSignal.load() == 0) {
        struct pollfd pfd = {listen_fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 250);
        if (pr < 0 && errno != EINTR)
            break;
        if (pr <= 0)
            continue;
        const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
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
            stop_fd = fd;
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
        servePlan(fd, std::move(env), *pool, cache, sopts);
        ::close(fd);
    }

    pool.reset();
    if (stop_fd >= 0)
        ::close(stop_fd);
    ::close(listen_fd);
    ::unlink(_options.socketPath.c_str());
    std::fprintf(stderr, "procoupd: shut down\n");
    return 0;
}

} // namespace exp
} // namespace procoup
