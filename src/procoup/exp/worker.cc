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
#include <deque>
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

/** Leases written to each worker at once: the next point's lease waits
 *  in the worker's pipe while the head executes, so the worker never
 *  idles through the supervisor's round trip and commit. */
constexpr std::size_t kLeasesInFlight = 2;

/** A fresh worker has this long, or its lease if longer, to send its
 *  ready heartbeat: start-up is not charged to a short lease. */
constexpr double kWorkerStartMs = 10000.0;

/** Write heartbeat number @p seq on fd 4. */
void
sendHeartbeat(std::uint64_t seq)
{
    ByteWriter w;
    w.u64(seq);
    const std::string f = kindFrame(FrameKind::Heartbeat, w.take());
    writeAllFd(kWorkerResFd, f.data(), f.size());
}

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** A worker's fd 4. One heartbeat thread, started by the first lease
 *  that asks for heartbeats, ticks every cadence and beats on each
 *  tick between begin() and end(); a mutex keeps its frames out of a
 *  result frame, which is larger than PIPE_BUF. */
class WorkerOutput
{
  public:
    /** A point starts executing; beat every @p cadence_ms (0: never). */
    void begin(double cadence_ms)
    {
        std::lock_guard<std::mutex> lock(_mu);
        _executing = cadence_ms > 0.0;
        if (_executing)
            _cadenceMs = cadence_ms;
        if (_executing && !_thread.joinable())
            _thread = std::jthread([this](std::stop_token s) { beat(s); });
    }

    /** The point finished: send its @p result, and no heartbeat until
     *  the next begin(). */
    bool end(const std::string& result)
    {
        std::lock_guard<std::mutex> lock(_mu);
        _executing = false;
        return writeAllFd(kWorkerResFd, result.data(), result.size());
    }

  private:
    void beat(std::stop_token stop)
    {
        std::unique_lock<std::mutex> lock(_mu);
        for (std::uint64_t seq = 1; !stop.stop_requested();) {
            _cv.wait_for(lock, stop,
                         std::chrono::duration<double, std::milli>(
                             _cadenceMs),
                         [] { return false; });
            if (_executing && !stop.stop_requested())
                sendHeartbeat(seq++);
        }
    }

    std::mutex _mu;
    std::condition_variable_any _cv;
    double _cadenceMs = 0.0;
    bool _executing = false;
    std::jthread _thread;  ///< last: stopped and joined first
};

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

} // namespace

/** One spawned worker child and the parent's ends of its pipes; the
 *  child is killed and reaped at the latest on destruction. */
struct WorkerProcess
{
    pid_t pid = -1;
    int cmdFd = -1;  ///< parent's write end (leases), non-blocking
    int resFd = -1;  ///< parent's read end (heartbeats, results)
    std::string outbox;  ///< lease bytes the pipe has not taken yet
    bool ready = false;  ///< sent its ready heartbeat

    WorkerProcess() = default;
    WorkerProcess(const WorkerProcess&) = delete;
    WorkerProcess& operator=(const WorkerProcess&) = delete;
    ~WorkerProcess() { destroy(); }

    bool alive() const { return pid > 0; }

    /** Write what the lease pipe takes of the outbox without blocking,
     *  so a hung worker cannot wedge its supervisor. A dead reader
     *  drops the rest; the result pipe then reports the death. */
    void flush()
    {
        while (!outbox.empty()) {
            const ssize_t n = ::write(cmdFd, outbox.data(), outbox.size());
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0) {
                if (errno != EAGAIN)
                    outbox.clear();
                return;
            }
            outbox.erase(0, static_cast<std::size_t>(n));
        }
    }

    void closeFds()
    {
        if (cmdFd >= 0)
            ::close(cmdFd);
        if (resFd >= 0)
            ::close(resFd);
        cmdFd = resFd = -1;
        outbox.clear();
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

    /** Reap the child if it has died: a pooled worker killed while
     *  its pool was idle. Its slot then respawns on next need. */
    void reapIfDead()
    {
        int status = 0;
        if (alive() && ::waitpid(pid, &status, WNOHANG) == pid) {
            pid = -1;
            closeFds();
        }
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
        // Close-on-exec from the start: a worker another supervising
        // thread forks meanwhile must not inherit these ends, or a
        // worker whose supervisor dies never sees EOF on its leases.
        int cmd[2] = {-1, -1};
        int res[2] = {-1, -1};
        if (::pipe2(cmd, O_CLOEXEC) != 0)
            return false;
        if (::pipe2(res, O_CLOEXEC) != 0) {
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
        ::fcntl(cmd[1], F_SETFL, O_NONBLOCK);
        pid = child;
        ready = false;
        cmdFd = cmd[1];
        resFd = res[0];
        return true;
    }
};

WorkerPool::WorkerPool() = default;
WorkerPool::~WorkerPool() = default;

void
WorkerPool::prepare(std::size_t slots)
{
    for (const auto& w : _slots)
        w->reapIfDead();
    while (_slots.size() < slots)
        _slots.push_back(std::make_unique<WorkerProcess>());
}

namespace {

/** A claimed point in one worker's queue. */
struct Lease
{
    std::size_t index = 0;
    std::string fp;
    int attempt = 0;      ///< attempts charged to this point so far
    bool issued = false;  ///< written to the current worker
};

/** Shared state of one superviseWorkers() call. */
struct Supervisor
{
    const ExperimentPlan& plan;
    const std::vector<std::size_t>& indices;
    const std::vector<std::string>& fps;  ///< per plan index, or empty
    const RunnerOptions& ropts;
    CompileCache& cache;
    const SupervisorOptions& opts;
    const RecordSink& commit;
    const std::size_t workers;  ///< supervising threads

    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> leasesIssued{0};
    std::atomic<std::uint64_t> leasesExpired{0};
    std::atomic<std::uint64_t> leasesReassigned{0};
    std::atomic<std::uint64_t> heartbeats{0};
    std::atomic<std::uint64_t> workerLost{0};
    std::atomic<bool> warnedSpawn{false};
};

/** One supervising thread: a pooled worker process and the leases
 *  written to it, head first. The worker runs them in order, so a lost
 *  worker was executing the head: only the head is charged an attempt,
 *  and the leases queued behind it go to the next worker uncharged. */
struct WorkerQueue
{
    WorkerQueue(Supervisor& s, WorkerProcess& w) : sup(s), child(w) {}

    Supervisor& sup;
    WorkerProcess& child;
    std::deque<Lease> leases;
    double deadlineMs = 0.0;  ///< when the head's lease expires

    /** The head's lease; a worker not ready yet also gets to start. */
    double leaseMs() const
    {
        return child.ready ? sup.opts.leaseMs
                           : std::max(sup.opts.leaseMs, kWorkerStartMs);
    }

    void renew() { deadlineMs = nowMs() + leaseMs(); }

    /** Claim points until kLeasesInFlight are queued; none once a
     *  graceful SIGTERM/SIGINT drain starts. A second lease is queued
     *  only while more points wait unclaimed than there are threads,
     *  so a plan of few points spreads over every worker. */
    void claim()
    {
        while (leases.size() < kLeasesInFlight && !sweepStopRequested()) {
            if (!leases.empty() &&
                sup.next.load() + sup.workers >= sup.indices.size())
                return;
            const std::size_t n = sup.next.fetch_add(1);
            if (n >= sup.indices.size())
                return;
            Lease& l = leases.emplace_back();
            l.index = sup.indices[n];
            l.fp = sup.fps.empty()
                       ? pointFingerprint(sup.plan.points()[l.index])
                       : sup.fps[l.index];
        }
    }

    /** Write every lease the worker does not hold yet. A head written
     *  now starts its clock now. */
    void issue()
    {
        for (Lease& l : leases) {
            if (l.issued)
                continue;
            if (&l == &leases.front())
                renew();
            child.outbox += kindFrame(
                FrameKind::PointLease,
                encodePointLease(sup.plan.points()[l.index], l.fp,
                                 sup.ropts, sup.opts.heartbeatMs));
            l.issued = true;
            ++sup.leasesIssued;
        }
        child.flush();
    }

    /** Wait for the head's result into @p rec, and its encoding into
     *  @p bytes, renewing its lease on each heartbeat. If the worker is
     *  lost, set @p kind and @p desc, kill or reap it, and return
     *  false. */
    bool await(OutcomeRecord* rec, std::string* bytes, SimErrorKind* kind,
               std::string* desc)
    {
        for (;;) {
            if (!child.outbox.empty()) {
                // A lease still waits for room in the pipe: feed it as
                // the worker drains it, and read whatever arrives.
                struct pollfd fds[2] = {{child.resFd, POLLIN, 0},
                                        {child.cmdFd, POLLOUT, 0}};
                const double wait = std::min(deadlineMs - nowMs(), 1e9);
                ::poll(fds, 2, std::max(static_cast<int>(wait), 0) + 1);
                if (fds[1].revents != 0)
                    child.flush();
                if (fds[0].revents == 0 && nowMs() < deadlineMs)
                    continue;
            }
            std::string payload;
            const FrameRead fr = readFrameFromFd(
                child.resFd, std::max(deadlineMs - nowMs(), 0.0), &payload);
            if (fr == FrameRead::Timeout) {
                if (nowMs() < deadlineMs)
                    continue;
                ++sup.leasesExpired;
                *kind = SimErrorKind::WorkerTimeout;
                *desc = strCat("let its ", leaseMs(),
                               " ms lease expire and was killed");
                child.destroy();
                return false;
            }
            *kind = SimErrorKind::WorkerCrash;
            if (fr == FrameRead::Closed) {
                *desc = child.reap();
                return false;
            }
            FrameKind fk{};
            const bool tagged = splitKindPayload(payload, &fk, bytes);
            if (tagged && fk == FrameKind::Heartbeat) {
                if (child.ready)  // the first one reports ready
                    ++sup.heartbeats;
                child.ready = true;
                renew();
                continue;
            }
            if (tagged && fk == FrameKind::PointResult &&
                decodeOutcomeRecord(*bytes, rec) &&
                rec->pointFingerprint == leases.front().fp)
                return true;
            *desc = "sent a garbled or unexpected frame";
            child.destroy();
            return false;
        }
    }

    /** Pop the head, write the next lease, then commit the head's
     *  record: the worker runs the next point during the commit. The
     *  new head's clock starts now, with its predecessor's result.
     *  @p bytes is the worker's encoding of @p rec, or "" for a record
     *  built here; the record is encoded here when it has none or when
     *  the head's charged attempts change its retries. */
    void complete(OutcomeRecord&& rec, std::string&& bytes)
    {
        const Lease& head = leases.front();
        const std::size_t index = head.index;
        if (bytes.empty() || head.attempt > 0) {
            rec.retries += static_cast<std::uint32_t>(head.attempt);
            bytes = encodeOutcomeRecord(rec);
        }
        leases.pop_front();
        renew();
        claim();
        if (child.alive())
            issue();
        sup.commit(index, std::move(rec), bytes);
    }

    /** Drive every claimed point through the lease state machine. */
    void run()
    {
        const int budget = sup.opts.retryPolicy.maxRetries();
        claim();
        while (!leases.empty()) {
            Lease& head = leases.front();
            const SweepPoint& point = sup.plan.points()[head.index];
            if (!sup.opts.inProcess && !child.alive() && !child.spawn() &&
                !sup.warnedSpawn.exchange(true))
                std::fprintf(stderr,
                             "warning: cannot spawn a worker process; "
                             "executing points in-process\n");
            if (!child.alive()) {
                ++sup.leasesIssued;
                complete(executePointToRecord(point, head.fp, sup.cache,
                                              sup.ropts),
                         {});
                continue;
            }
            issue();
            OutcomeRecord rec;
            std::string bytes;
            SimErrorKind kind{};
            std::string desc;
            if (await(&rec, &bytes, &kind, &desc)) {
                complete(std::move(rec), std::move(bytes));
                continue;
            }
            for (Lease& l : leases)
                l.issued = false;
            if (head.attempt < budget) {
                ++head.attempt;
                ++sup.leasesReassigned;
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        sup.opts.retryPolicy.delayMs(fnv1a64(point.label),
                                                     head.attempt)));
                continue;
            }
            // Attempts exhausted: the point becomes a structured error
            // record (even without fail-safe — turning a dead process
            // into data is what supervision is for). complete() adds
            // the whole budget as its retries.
            ++sup.workerLost;
            rec = OutcomeRecord{};
            rec.label = point.label;
            rec.pointFingerprint = head.fp;
            rec.failed = true;
            rec.errorKind = static_cast<std::uint8_t>(
                sup.opts.reportLost ? SimErrorKind::WorkerLost : kind);
            rec.error = strCat("worker executing '", point.label, "' ",
                               desc, " (", budget + 1, " attempts)");
            complete(std::move(rec), {});
        }
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

    // Report ready: a fresh worker's first lease clock restarts here,
    // so start-up is not charged to that point.
    sendHeartbeat(0);

    CompileCache cache;  // warm for the worker's life, plan after plan
    WorkerOutput out;
    for (;;) {
        std::string payload;
        if (readFrameFromFd(kWorkerCmdFd, -1.0, &payload) !=
            FrameRead::Ok)
            _exit(0);  // the supervisor hung up
        FrameKind kind{};
        std::string body;
        LeasedPoint lease;
        if (!splitKindPayload(payload, &kind, &body) ||
            kind != FrameKind::PointLease ||
            !decodePointLease(body, &lease))
            _exit(125);  // protocol violation
        const SweepPoint& point = lease.point;
        const RunnerOptions& ropts = lease.options;

        if (crash_label && point.label == crash_label)
            _exit(42);
        if (hang_label && point.label == hang_label)
            for (;;)
                std::this_thread::sleep_for(std::chrono::hours(1));

        cache.configure(ropts.cacheEnabled, ropts.diskCacheDir);
        out.begin(lease.heartbeatMs);
        const OutcomeRecord rec =
            executePointToRecord(point, lease.fingerprint, cache, ropts);
        if (!out.end(kindFrame(FrameKind::PointResult,
                               encodeOutcomeRecord(rec))))
            _exit(125);  // the supervisor is gone
    }
}

DaemonStats
superviseWorkers(WorkerPool& pool, const ExperimentPlan& plan,
                 const std::vector<std::size_t>& indices,
                 const std::vector<std::string>& fps,
                 const RunnerOptions& ropts, CompileCache& cache,
                 const SupervisorOptions& opts, const RecordSink& commit)
{
    // A worker death must surface as a lost lease, not kill the
    // supervisor with SIGPIPE on the next lease write.
    ::signal(SIGPIPE, SIG_IGN);

    const std::size_t workers = std::min<std::size_t>(
        std::max(opts.workers, 1), indices.size());
    if (workers == 0)
        return {};
    pool.prepare(workers);
    Supervisor sup{plan, indices, fps, ropts, cache, opts, commit, workers};
    std::atomic<std::size_t> slot{0};
    runOnThreads(workers,
                 [&] { WorkerQueue(sup, pool.slot(slot++)).run(); });

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
