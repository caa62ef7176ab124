#include "procoup/exp/service.hh"

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>

#include "procoup/exp/journal.hh"
#include "procoup/exp/worker.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

std::string
frameKindName(FrameKind k)
{
    switch (k) {
      case FrameKind::PlanSubmit:   return "plan-submit";
      case FrameKind::PointLease:   return "point-lease";
      case FrameKind::PointResult:  return "point-result";
      case FrameKind::Heartbeat:    return "heartbeat";
      case FrameKind::Shutdown:     return "shutdown";
      case FrameKind::PlanDone:     return "plan-done";
      case FrameKind::ServiceError: return "service-error";
    }
    return "unknown";
}

bool
frameKindValid(std::uint8_t tag)
{
    return tag >= static_cast<std::uint8_t>(FrameKind::PlanSubmit) &&
           tag <= static_cast<std::uint8_t>(FrameKind::ServiceError) &&
           tag != 5;  // unassigned
}

std::string
kindFrame(FrameKind kind, const std::string& body)
{
    std::string payload;
    payload.reserve(body.size() + 1);
    payload.push_back(static_cast<char>(kind));
    payload += body;
    return frame(payload);
}

bool
splitKindPayload(const std::string& payload, FrameKind* kind,
                 std::string* body)
{
    if (payload.empty() ||
        !frameKindValid(static_cast<std::uint8_t>(payload[0])))
        return false;
    *kind = static_cast<FrameKind>(payload[0]);
    body->assign(payload, 1, payload.size() - 1);
    return true;
}

// ---- Socket plumbing ---------------------------------------------------

namespace {

bool
fillSockaddr(const std::string& path, sockaddr_un* addr)
{
    if (path.empty() || path.size() >= sizeof addr->sun_path)
        return false;
    std::memset(addr, 0, sizeof *addr);
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

int
listenUnixSocket(const std::string& path, int backlog)
{
    sockaddr_un addr;
    if (!fillSockaddr(path, &addr))
        return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(fd, backlog) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

int
connectUnixSocket(const std::string& path)
{
    sockaddr_un addr;
    if (!fillSockaddr(path, &addr))
        return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

// ---- Client ------------------------------------------------------------

namespace {

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** One connected session: submit the plan, consume frames until
 *  plan-done or a dead/garbled connection. Returns true on plan-done.
 *  The first session fills @p fps, which check every result, while the
 *  daemon decodes the submission. */
bool
runClientSession(int fd, const std::string& submitFrame,
                 const ExperimentPlan& plan,
                 std::vector<std::string>& fps,
                 std::vector<bool>& have,
                 std::vector<OutcomeRecord>& records,
                 DaemonStats* stats, double frameTimeoutMs)
{
    if (!writeAllFd(fd, submitFrame.data(), submitFrame.size()))
        return false;
    if (fps.empty()) {
        fps.reserve(plan.size());
        for (const SweepPoint& p : plan.points())
            fps.push_back(pointFingerprint(p));
    }
    for (;;) {
        std::string payload;
        if (readFrameFromFd(fd, frameTimeoutMs, &payload) !=
            FrameRead::Ok)
            return false;
        FrameKind kind;
        std::string body;
        if (!splitKindPayload(payload, &kind, &body))
            return false;

        switch (kind) {
          case FrameKind::Heartbeat:
            break;  // liveness / progress only
          case FrameKind::PointResult: {
            std::uint64_t index = 0;
            std::string rec_payload;
            OutcomeRecord rec;
            if (!decodePointResult(body, &index, &rec_payload) ||
                index >= plan.size() ||
                !decodeOutcomeRecord(rec_payload, &rec) ||
                rec.pointFingerprint != fps[index])
                return false;
            // At-least-once delivery: a replayed duplicate after a
            // reconnect is dropped here, which is exactly what makes
            // interrupted sessions bit-identical to clean ones.
            if (!have[index]) {
                have[index] = true;
                records[index] = std::move(rec);
            }
            break;
          }
          case FrameKind::PlanDone: {
            DaemonStats s;
            if (!decodeDaemonStats(body, &s))
                return false;
            const std::uint64_t reconnects = stats->reconnects;
            *stats = s;
            stats->reconnects = reconnects;
            for (std::size_t i = 0; i < plan.size(); ++i)
                if (!have[i])
                    return false;  // done without all results?
            return true;
          }
          case FrameKind::ServiceError:
            throw std::runtime_error(
                strCat("sweep daemon rejected the plan: ", body));
          default:
            return false;
        }
    }
}

} // namespace

SweepResult
runPlanOverSocket(const ExperimentPlan& plan, const RunnerOptions& ropts,
                  const ClientOptions& copts)
{
    // A daemon that died or closed the socket must surface as EPIPE
    // on the next submission, not kill the client.
    ::signal(SIGPIPE, SIG_IGN);

    const auto start = std::chrono::steady_clock::now();
    const std::string submit =
        kindFrame(FrameKind::PlanSubmit, encodePlanSubmit(plan, ropts));

    std::vector<std::string> fps;
    std::vector<bool> have(plan.size(), false);
    std::vector<OutcomeRecord> records(plan.size());
    DaemonStats stats;
    bool done = plan.empty();
    bool connected_once = false;

    // A daemon started just before this client accepts within a few
    // milliseconds; one that is restarting may take longer.
    double retry_ms = 2.0;
    auto back_off = [&] {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(retry_ms));
        retry_ms = std::min(retry_ms * 2.0, 200.0);
    };

    while (!done) {
        if (msSince(start) > copts.totalTimeoutMs)
            throw std::runtime_error(strCat(
                "sweep daemon at ", copts.socketPath,
                " unreachable or silent for ", copts.totalTimeoutMs,
                " ms; giving up"));
        const int fd = connectUnixSocket(copts.socketPath);
        if (fd < 0) {
            back_off();
            continue;
        }
        if (connected_once)
            ++stats.reconnects;
        connected_once = true;
        try {
            done = runClientSession(fd, submit, plan, fps, have,
                                    records, &stats,
                                    copts.frameTimeoutMs);
        } catch (...) {
            ::close(fd);
            throw;
        }
        ::close(fd);
        if (!done)
            back_off();
    }

    // Worker exceptions and verification failures end the plan as
    // they do locally: one reduction, shared with SweepRunner.
    SweepResult res;
    res.outcomes.resize(plan.size());
    std::vector<std::exception_ptr> failures(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        failures[i] = recordException(records[i]);
        res.outcomes[i] = makeRunOutcome(records[i], &plan.points()[i]);
    }
    finishPlanRun(failures, res.outcomes, copts.exitOnVerifyFailure);
    res.jobs = stats.jobs ? static_cast<int>(stats.jobs) : 1;
    res.daemon = stats;
    res.daemon.active = true;
    res.cacheStats.hits = stats.cacheHits;
    res.cacheStats.misses = stats.cacheMisses;
    res.cacheStats.compiles = stats.compiles;
    res.wallMs = msSince(start);
    return res;
}

bool
requestDaemonShutdown(const std::string& socketPath)
{
    const int fd = connectUnixSocket(socketPath);
    if (fd < 0)
        return false;
    const std::string f = kindFrame(FrameKind::Shutdown, "");
    // The daemon acknowledges by closing the connection once its
    // workers are reaped; one busy in a plan reads the frame after it.
    std::string reply;
    const bool acked = writeAllFd(fd, f.data(), f.size()) &&
                       readFrameFromFd(fd, 5000.0, &reply) ==
                           FrameRead::Closed;
    ::close(fd);
    return acked;
}

} // namespace exp
} // namespace procoup
