#include "procoup/exp/service.hh"

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

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
 *  plan-done or a dead/garbled connection. Returns true on plan-done. */
bool
runClientSession(int fd, const std::string& submitFrame,
                 const ExperimentPlan& plan,
                 const std::vector<std::string>& fps,
                 std::vector<bool>& have,
                 std::vector<OutcomeRecord>& records,
                 DaemonStats* stats, double frameTimeoutMs)
{
    if (!writeAllFd(fd, submitFrame.data(), submitFrame.size()))
        return false;
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

    std::vector<std::string> fps(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i)
        fps[i] = pointFingerprint(plan.points()[i]);

    std::vector<bool> have(plan.size(), false);
    std::vector<OutcomeRecord> records(plan.size());
    DaemonStats stats;
    bool done = plan.empty();
    bool connected_once = false;

    while (!done) {
        if (msSince(start) > copts.totalTimeoutMs)
            throw std::runtime_error(strCat(
                "sweep daemon at ", copts.socketPath,
                " unreachable or silent for ", copts.totalTimeoutMs,
                " ms; giving up"));
        const int fd = connectUnixSocket(copts.socketPath);
        if (fd < 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
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
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
    }

    // Worker exceptions keep their local semantics: rethrow the first
    // one in plan order, exactly as SweepRunner's reduction does.
    for (const OutcomeRecord& rec : records)
        if (std::exception_ptr e = recordException(rec))
            std::rethrow_exception(e);

    SweepResult res;
    res.outcomes.resize(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i)
        res.outcomes[i] = makeRunOutcome(records[i], &plan.points()[i]);
    res.jobs = stats.jobs ? static_cast<int>(stats.jobs) : 1;
    res.daemon = stats;
    res.daemon.active = true;
    res.cacheStats.hits = stats.cacheHits;
    res.cacheStats.misses = stats.cacheMisses;
    res.cacheStats.compiles = stats.compiles;

    bool verify_failed = false;
    for (const auto& o : res.outcomes)
        if (!o.error.empty() && !o.failed) {
            verify_failed = true;
            if (copts.exitOnVerifyFailure)
                std::fprintf(stderr, "FATAL: %s\n", o.error.c_str());
        }
    if (verify_failed && copts.exitOnVerifyFailure)
        std::exit(1);

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
    const bool sent = writeAllFd(fd, f.data(), f.size());
    // Wait for the daemon to close the connection (it exits after).
    std::string ignored;
    if (sent)
        readFrameFromFd(fd, 5000.0, &ignored);
    ::close(fd);
    return sent;
}

} // namespace exp
} // namespace procoup
