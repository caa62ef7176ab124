#include "procoup/exp/worker.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "procoup/exp/journal.hh"
#include "procoup/exp/service.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

bool
writeAllFd(int fd, const void* data, std::size_t len)
{
    const char* p = static_cast<const char*>(data);
    while (len > 0) {
        const ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

FrameRead
readFrameFromFd(int fd, double timeout_ms, std::string* payload)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double, std::milli>(timeout_ms);
    std::string buf;
    std::size_t want = kFrameHeaderSize;

    for (;;) {
        if (buf.size() >= want && want > kFrameHeaderSize) {
            std::size_t offset = 0;
            // Full frame buffered: checksum + version validation.
            return readFrame(buf, offset, payload) ? FrameRead::Ok
                                                   : FrameRead::Closed;
        }
        if (buf.size() >= kFrameHeaderSize &&
            want == kFrameHeaderSize) {
            std::uint32_t magic, version;
            std::uint64_t len;
            std::memcpy(&magic, buf.data(), 4);
            std::memcpy(&version, buf.data() + 4, 4);
            std::memcpy(&len, buf.data() + 8, 8);
            if (magic != kFrameMagic || version != kFormatVersion ||
                len > (1ull << 30))
                return FrameRead::Closed;  // garbage on the pipe
            want = kFrameHeaderSize + static_cast<std::size_t>(len);
            continue;
        }

        // Past the deadline, bytes the kernel already holds are still
        // read: a Timeout mid-frame would drop the bytes consumed so
        // far and desynchronize the stream.
        int wait_ms = -1;
        if (timeout_ms >= 0) {
            const auto remaining = std::chrono::duration_cast<
                std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
            wait_ms = remaining.count() > 0
                          ? static_cast<int>(std::min<std::int64_t>(
                                remaining.count(), 1 << 30)) + 1
                          : 0;
        }
        struct pollfd pfd = {fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, wait_ms);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return FrameRead::Closed;
        }
        if (pr == 0)
            return FrameRead::Timeout;

        // Never read past the current frame: streamed protocols (the
        // sweep daemon) pipeline frames back-to-back on one fd, and
        // bytes of the next frame must stay in the kernel buffer for
        // the next call.
        char chunk[65536];
        const std::size_t cap =
            std::min(sizeof chunk, want - buf.size());
        const ssize_t n = ::read(fd, chunk, cap);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return FrameRead::Closed;
        }
        if (n == 0)
            return FrameRead::Closed;  // EOF: the peer died
        buf.append(chunk, static_cast<std::size_t>(n));
    }
}

namespace {

/** Protocol fds inherited by a worker child. */
constexpr int kWorkerCmdFd = 3;
constexpr int kWorkerResFd = 4;

/** While alive, emits a heartbeat frame on fd 4 every @p cadence_ms. */
std::jthread
heartbeatPump(double cadence_ms)
{
    if (cadence_ms <= 0.0)
        return {};
    return std::jthread([cadence_ms](std::stop_token stop) {
        std::mutex mu;
        std::condition_variable_any cv;
        std::unique_lock<std::mutex> lock(mu);
        for (std::uint64_t seq = 1;; ++seq) {
            cv.wait_for(lock, stop,
                        std::chrono::duration<double, std::milli>(
                            cadence_ms),
                        [] { return false; });
            if (stop.stop_requested())
                return;
            ByteWriter w;
            w.u64(seq);
            const std::string f =
                kindFrame(FrameKind::Heartbeat, w.take());
            writeAllFd(kWorkerResFd, f.data(), f.size());
        }
    });
}

std::string
describeExit(int status)
{
    if (WIFEXITED(status))
        return strCat("exited with status ", WEXITSTATUS(status));
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        const char* name = strsignal(sig);
        return strCat("killed by signal ", sig, " (",
                      name ? name : "?", ")");
    }
    return "stopped abnormally";
}

/** Move @p fd to @p target, leaving target's CLOEXEC clear. */
void
installFd(int fd, int target)
{
    if (fd == target) {
        const int flags = ::fcntl(fd, F_GETFD);
        if (flags >= 0)
            ::fcntl(fd, F_SETFD, flags & ~FD_CLOEXEC);
        return;
    }
    ::dup2(fd, target);
}

/** One spawned worker child and the parent's ends of its pipes; the
 *  child is killed and reaped at the latest on destruction. */
struct WorkerProcess
{
    pid_t pid = -1;
    int cmdFd = -1;  ///< parent's write end (leases)
    int resFd = -1;  ///< parent's read end (heartbeats, results)

    WorkerProcess() = default;
    WorkerProcess(const WorkerProcess&) = delete;
    WorkerProcess& operator=(const WorkerProcess&) = delete;
    ~WorkerProcess() { destroy(); }

    bool alive() const { return pid > 0; }

    void closeFds()
    {
        if (cmdFd >= 0)
            ::close(cmdFd);
        if (resFd >= 0)
            ::close(resFd);
        cmdFd = resFd = -1;
    }

    /** SIGKILL (harmless if already dead) and reap. */
    void destroy()
    {
        if (alive()) {
            ::kill(pid, SIGKILL);
            int status = 0;
            while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
            }
            pid = -1;
        }
        closeFds();
    }

    /** Reap a child that closed its pipe; returns the exit status
     *  description. Escalates to SIGKILL if it lingers. */
    std::string reap()
    {
        int status = 0;
        for (int spin = 0; spin < 100; ++spin) {
            const pid_t r = ::waitpid(pid, &status, WNOHANG);
            if (r == pid) {
                pid = -1;
                closeFds();
                return describeExit(status);
            }
            if (r < 0 && errno != EINTR)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        destroy();
        return "hung after closing its pipe";
    }

    /** fork + exec this binary as "--worker" with the protocol pipes
     *  on fds 3/4; false if the child cannot be spawned. */
    bool spawn()
    {
        int cmd[2] = {-1, -1};
        int res[2] = {-1, -1};
        if (::pipe(cmd) != 0)
            return false;
        if (::pipe(res) != 0) {
            ::close(cmd[0]);
            ::close(cmd[1]);
            return false;
        }
        char worker_flag[] = "--worker";
        char* argv[] = {program_invocation_name, worker_flag, nullptr};

        const pid_t child = ::fork();
        if (child < 0) {
            for (const int fd : {cmd[0], cmd[1], res[0], res[1]})
                ::close(fd);
            return false;
        }
        if (child == 0) {
            // Install the protocol fds and drop the parent's ends. The
            // fd dance guards against a pipe end already on 3 or 4.
            ::close(cmd[1]);
            ::close(res[0]);
            if (res[1] == kWorkerCmdFd)
                res[1] = ::dup(res[1]);
            installFd(cmd[0], kWorkerCmdFd);
            if (cmd[0] != kWorkerCmdFd && cmd[0] != kWorkerResFd)
                ::close(cmd[0]);
            installFd(res[1], kWorkerResFd);
            if (res[1] != kWorkerCmdFd && res[1] != kWorkerResFd)
                ::close(res[1]);
            // Re-exec this very image: /proc/self/exe survives relative
            // argv[0] and cwd changes; fall back to argv[0] off procfs.
            ::execv("/proc/self/exe", argv);
            ::execv(argv[0], argv);
            _exit(127);  // exec failed; the supervisor sees EOF + status
        }

        ::close(cmd[0]);
        ::close(res[1]);
        ::fcntl(cmd[1], F_SETFD, FD_CLOEXEC);
        ::fcntl(res[0], F_SETFD, FD_CLOEXEC);
        pid = child;
        cmdFd = cmd[1];
        resFd = res[0];
        return true;
    }
};

/** Shared state of one superviseWorkers() call. */
struct Supervisor
{
    const ExperimentPlan& plan;
    const RunnerOptions& ropts;
    CompileCache& cache;
    const SupervisorOptions& opts;

    std::atomic<std::uint64_t> leasesIssued{0};
    std::atomic<std::uint64_t> leasesExpired{0};
    std::atomic<std::uint64_t> leasesReassigned{0};
    std::atomic<std::uint64_t> heartbeats{0};
    std::atomic<std::uint64_t> workerLost{0};
    std::atomic<bool> warnedSpawn{false};

    /** Drive point @p index through the lease state machine. */
    OutcomeRecord supervisePoint(WorkerProcess& child, std::size_t index)
    {
        const SweepPoint& point = plan.points()[index];
        const std::string fp = pointFingerprint(point);
        const std::uint64_t jitter_seed = fnv1a64(point.label);
        const int budget = opts.retryPolicy.maxRetries();
        std::string lease;

        SimErrorKind last_kind = SimErrorKind::WorkerCrash;
        std::string last_desc = "never started";
        for (int attempt = 0; attempt <= budget; ++attempt) {
            if (attempt > 0) {
                ++leasesReassigned;
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        opts.retryPolicy.delayMs(jitter_seed, attempt)));
            }
            ++leasesIssued;
            if (!opts.inProcess && !child.alive() && !child.spawn() &&
                !warnedSpawn.exchange(true))
                std::fprintf(stderr,
                             "warning: cannot spawn a worker process; "
                             "executing points in-process\n");
            if (!child.alive()) {
                OutcomeRecord rec =
                    executePointToRecord(point, fp, cache, ropts);
                rec.retries += static_cast<std::uint32_t>(attempt);
                return rec;
            }

            if (lease.empty())
                lease = kindFrame(FrameKind::PointLease,
                                  encodePointLease(plan, index, ropts,
                                                   opts.heartbeatMs));
            if (!writeAllFd(child.cmdFd, lease.data(), lease.size())) {
                last_kind = SimErrorKind::WorkerCrash;
                last_desc = child.reap();
                continue;
            }

            auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration<double, std::milli>(
                                opts.leaseMs);
            for (;;) {
                const double remaining =
                    std::chrono::duration<double, std::milli>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
                std::string payload;
                const FrameRead fr = readFrameFromFd(
                    child.resFd, std::max(remaining, 0.0), &payload);
                if (fr == FrameRead::Timeout) {
                    if (std::chrono::steady_clock::now() < deadline)
                        continue;
                    ++leasesExpired;
                    last_kind = SimErrorKind::WorkerTimeout;
                    last_desc = strCat("let its ", opts.leaseMs,
                                       " ms lease expire and was killed");
                    child.destroy();
                    break;
                }
                last_kind = SimErrorKind::WorkerCrash;
                if (fr == FrameRead::Closed) {
                    last_desc = child.reap();
                    break;
                }
                FrameKind kind{};
                std::string body;
                const bool tagged =
                    splitKindPayload(payload, &kind, &body);
                if (tagged && kind == FrameKind::Heartbeat) {
                    ++heartbeats;
                    deadline = std::chrono::steady_clock::now() +
                               std::chrono::duration<double, std::milli>(
                                   opts.leaseMs);
                    continue;
                }
                OutcomeRecord rec;
                if (tagged && kind == FrameKind::PointResult &&
                    decodeOutcomeRecord(body, &rec) &&
                    rec.pointFingerprint == fp) {
                    rec.retries += static_cast<std::uint32_t>(attempt);
                    return rec;
                }
                last_desc = "sent a garbled or unexpected frame";
                child.destroy();
                break;
            }
        }

        // Attempts exhausted: the point becomes a structured error
        // record (even without fail-safe — turning a dead process into
        // data is what supervision is for).
        ++workerLost;
        OutcomeRecord rec;
        rec.label = point.label;
        rec.pointFingerprint = fp;
        rec.failed = true;
        rec.errorKind = static_cast<std::uint8_t>(
            opts.reportLost ? SimErrorKind::WorkerLost : last_kind);
        rec.retries = static_cast<std::uint32_t>(budget);
        rec.error = strCat("worker executing '", point.label, "' ",
                           last_desc, " (", budget + 1, " attempts)");
        return rec;
    }
};

} // namespace

void
runWorkerIfRequested(int argc, char** argv)
{
    if (argc < 2 || std::strcmp(argv[1], "--worker") != 0)
        return;

    // Test hooks (chaos coverage): make the worker crash or hang on a
    // chosen point label, from outside, without touching the sweep;
    // log every worker start so tests can assert replays spawn none.
    const char* crash_label =
        std::getenv("PROCOUP_TEST_WORKER_CRASH_LABEL");
    const char* hang_label =
        std::getenv("PROCOUP_TEST_WORKER_HANG_LABEL");
    if (const char* spawn_log =
            std::getenv("PROCOUP_TEST_WORKER_SPAWN_LOG")) {
        if (std::FILE* f = std::fopen(spawn_log, "a")) {
            std::fprintf(f, "%d\n", static_cast<int>(::getpid()));
            std::fclose(f);
        }
    }

    CompileCache cache;
    for (;;) {
        std::string payload;
        if (readFrameFromFd(kWorkerCmdFd, -1.0, &payload) !=
            FrameRead::Ok)
            _exit(0);  // the supervisor hung up
        FrameKind kind{};
        std::string body;
        double heartbeat_ms = 0.0;
        PlanEnvelope env;
        if (!splitKindPayload(payload, &kind, &body) ||
            kind != FrameKind::PointLease ||
            !decodePointLease(body, &heartbeat_ms, &env))
            _exit(125);  // protocol violation
        const SweepPoint& point = env.plan.points().front();
        const RunnerOptions& ropts = env.options;

        if (crash_label && point.label == crash_label)
            _exit(42);
        if (hang_label && point.label == hang_label)
            for (;;)
                std::this_thread::sleep_for(std::chrono::hours(1));

        cache.setEnabled(ropts.cacheEnabled);
        const std::string disk_dir =
            ropts.cacheEnabled ? ropts.diskCacheDir : "";
        if (cache.diskDir() != disk_dir)
            cache.setDiskDir(disk_dir);

        OutcomeRecord rec;
        {
            std::jthread pump = heartbeatPump(heartbeat_ms);
            rec = executePointToRecord(point, pointFingerprint(point),
                                       cache, ropts);
        }
        const std::string framed =
            kindFrame(FrameKind::PointResult, encodeOutcomeRecord(rec));
        if (!writeAllFd(kWorkerResFd, framed.data(), framed.size()))
            _exit(125);  // the supervisor is gone
    }
}

DaemonStats
superviseWorkers(const ExperimentPlan& plan,
                 const std::vector<std::size_t>& indices,
                 const RunnerOptions& ropts, CompileCache& cache,
                 const SupervisorOptions& opts,
                 const std::function<void(std::size_t, OutcomeRecord&&)>&
                     commit)
{
    // A worker death must surface as a lost lease, not kill the
    // supervisor with SIGPIPE on the next lease write.
    ::signal(SIGPIPE, SIG_IGN);

    Supervisor sup{plan, ropts, cache, opts};
    std::atomic<std::size_t> next{0};
    auto drive = [&] {
        WorkerProcess child;
        for (std::size_t n = next.fetch_add(1); n < indices.size();
             n = next.fetch_add(1)) {
            if (sweepStopRequested())
                break;  // graceful SIGTERM/SIGINT drain
            commit(indices[n], sup.supervisePoint(child, indices[n]));
        }
    };
    const int workers = static_cast<int>(std::min<std::size_t>(
        std::max(opts.workers, 1), indices.size()));
    if (workers <= 1) {
        drive();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (int w = 0; w < workers; ++w)
            pool.emplace_back(drive);
        for (auto& t : pool)
            t.join();
    }

    DaemonStats stats;
    stats.leasesIssued = sup.leasesIssued.load();
    stats.leasesExpired = sup.leasesExpired.load();
    stats.leasesReassigned = sup.leasesReassigned.load();
    stats.heartbeats = sup.heartbeats.load();
    stats.workerLost = sup.workerLost.load();
    return stats;
}

} // namespace exp
} // namespace procoup
