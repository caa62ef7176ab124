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
      case FrameKind::StreamAck:    return "stream-ack";
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
           tag <= static_cast<std::uint8_t>(FrameKind::ServiceError);
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

// ---- Plan serialization ------------------------------------------------

void
writeMachineConfig(ByteWriter& w, const config::MachineConfig& m)
{
    w.str(m.name);
    w.u32(static_cast<std::uint32_t>(m.clusters.size()));
    for (const auto& c : m.clusters) {
        w.u32(static_cast<std::uint32_t>(c.units.size()));
        for (const auto& u : c.units) {
            w.u8(static_cast<std::uint8_t>(u.type));
            w.i64(u.latency);
        }
    }
    w.u8(static_cast<std::uint8_t>(m.interconnect));
    w.u8(static_cast<std::uint8_t>(m.arbitration));
    w.i64(m.memory.hitLatency);
    w.f64(m.memory.missRate);
    w.i64(m.memory.missPenaltyMin);
    w.i64(m.memory.missPenaltyMax);
    w.i64(m.memory.numBanks);
    w.b(m.memory.modelBankConflicts);
    w.u64(m.memory.seed);
    w.b(m.opCache.enabled);
    w.i64(m.opCache.linesPerUnit);
    w.i64(m.opCache.rowsPerLine);
    w.i64(m.opCache.missPenalty);
    w.i64(m.maxActiveThreads);
    w.i64(m.swapOutIdleCycles);
    w.i64(m.deadlockCycleLimit);
}

bool
readMachineConfig(ByteReader& r, config::MachineConfig* m)
{
    m->name = r.str();
    const std::uint32_t nclusters = r.u32();
    if (r.failed() || nclusters > (1u << 16))
        return false;
    m->clusters.clear();
    m->clusters.resize(nclusters);
    for (auto& c : m->clusters) {
        const std::uint32_t nunits = r.u32();
        if (r.failed() || nunits > (1u << 16))
            return false;
        c.units.resize(nunits);
        for (auto& u : c.units) {
            u.type = static_cast<isa::UnitType>(r.u8());
            u.latency = static_cast<int>(r.i64());
        }
    }
    m->interconnect = static_cast<config::InterconnectScheme>(r.u8());
    m->arbitration = static_cast<config::ArbitrationPolicy>(r.u8());
    m->memory.hitLatency = static_cast<int>(r.i64());
    m->memory.missRate = r.f64();
    m->memory.missPenaltyMin = static_cast<int>(r.i64());
    m->memory.missPenaltyMax = static_cast<int>(r.i64());
    m->memory.numBanks = static_cast<int>(r.i64());
    m->memory.modelBankConflicts = r.b();
    m->memory.seed = r.u64();
    m->opCache.enabled = r.b();
    m->opCache.linesPerUnit = static_cast<int>(r.i64());
    m->opCache.rowsPerLine = static_cast<int>(r.i64());
    m->opCache.missPenalty = static_cast<int>(r.i64());
    m->maxActiveThreads = static_cast<int>(r.i64());
    m->swapOutIdleCycles = static_cast<int>(r.i64());
    m->deadlockCycleLimit = static_cast<int>(r.i64());
    return !r.failed();
}

void
writeFaultPlan(ByteWriter& w, const fault::FaultPlan& f)
{
    w.b(f.enabled);
    w.u64(f.seed);
    w.f64(f.memJitterProb);
    w.i64(f.memJitterMax);
    w.f64(f.memBurstProb);
    w.i64(f.memBurstLength);
    w.i64(f.memBurstPenalty);
    w.f64(f.bankStormProb);
    w.i64(f.bankStormCycles);
    w.f64(f.fuBubbleProb);
    w.i64(f.fuBubbleMax);
    w.u64(f.opcacheFlushPeriod);
    w.f64(f.spawnDelayProb);
    w.i64(f.spawnDelayMax);
}

bool
readFaultPlan(ByteReader& r, fault::FaultPlan* f)
{
    f->enabled = r.b();
    f->seed = r.u64();
    f->memJitterProb = r.f64();
    f->memJitterMax = static_cast<int>(r.i64());
    f->memBurstProb = r.f64();
    f->memBurstLength = static_cast<int>(r.i64());
    f->memBurstPenalty = static_cast<int>(r.i64());
    f->bankStormProb = r.f64();
    f->bankStormCycles = static_cast<int>(r.i64());
    f->fuBubbleProb = r.f64();
    f->fuBubbleMax = static_cast<int>(r.i64());
    f->opcacheFlushPeriod = r.u64();
    f->spawnDelayProb = r.f64();
    f->spawnDelayMax = static_cast<int>(r.i64());
    return !r.failed();
}

void
writeSimOptions(ByteWriter& w, const sim::SimOptions& o)
{
    writeFaultPlan(w, o.faults);
    w.u64(o.limits.maxCycles);
    w.f64(o.limits.wallClockDeadlineMs);
    w.u64(o.sanitizeEveryCycles);
}

bool
readSimOptions(ByteReader& r, sim::SimOptions* o)
{
    if (!readFaultPlan(r, &o->faults))
        return false;
    o->limits.maxCycles = r.u64();
    o->limits.wallClockDeadlineMs = r.f64();
    o->sanitizeEveryCycles = r.u64();
    return !r.failed();
}

void
writeSweepPoint(ByteWriter& w, const SweepPoint& p)
{
    w.str(p.label);
    writeMachineConfig(w, p.machine);
    w.str(p.source);
    w.u8(static_cast<std::uint8_t>(p.mode));
    w.u8(static_cast<std::uint8_t>(p.options.mode));
    w.i64(p.options.forkClones);
    w.b(p.options.runOptimizer);
    w.str(p.verifyBenchmark);
    w.i64(p.benchmarkId);
    w.b(p.traceStalls);
    writeSimOptions(w, p.simOptions);
}

bool
readSweepPoint(ByteReader& r, SweepPoint* p)
{
    p->label = r.str();
    if (!readMachineConfig(r, &p->machine))
        return false;
    p->source = r.str();
    p->mode = static_cast<core::SimMode>(r.u8());
    p->options.mode = static_cast<sched::ScheduleMode>(r.u8());
    p->options.forkClones = static_cast<int>(r.i64());
    p->options.runOptimizer = r.b();
    p->verifyBenchmark = r.str();
    p->benchmarkId = static_cast<int>(r.i64());
    p->traceStalls = r.b();
    return readSimOptions(r, &p->simOptions) && !r.failed();
}

std::string
encodePlanSubmit(const ExperimentPlan& plan, const RunnerOptions& options)
{
    for (const auto& p : plan.points())
        if (p.tracer)
            throw CompileError(strCat(
                "point '", p.label,
                "' carries a trace sink; tracing is observational and "
                "cannot be executed remotely (--connect)"));
    ByteWriter w;
    w.str(plan.name());
    w.b(options.cacheEnabled);
    w.b(options.failSafe);
    w.b(options.retryFaulted);
    w.i64(options.retryPolicy.maxAttempts - 1);
    w.u64(plan.size());
    for (const auto& p : plan.points())
        writeSweepPoint(w, p);
    return w.take();
}

bool
decodePlanSubmit(const std::string& body, PlanEnvelope* env)
{
    ByteReader r(body);
    const std::string name = r.str();
    env->plan = ExperimentPlan(name);
    env->options = RunnerOptions{};
    env->options.exitOnVerifyFailure = false;
    env->options.cacheEnabled = r.b();
    env->options.failSafe = r.b();
    env->options.retryFaulted = r.b();
    const std::int64_t retries = r.i64();
    const std::uint64_t n = r.u64();
    if (r.failed() || retries < 0 || retries > (1 << 20) ||
        n > (1ull << 20))
        return false;
    env->options.retryPolicy.maxAttempts = static_cast<int>(retries) + 1;
    try {
        for (std::uint64_t i = 0; i < n; ++i) {
            SweepPoint p;
            if (!readSweepPoint(r, &p))
                return false;
            env->plan.add(std::move(p));  // enforces unique labels
        }
    } catch (const std::exception&) {
        return false;
    }
    return !r.failed() && r.atEnd();
}

// ---- Frame bodies ------------------------------------------------------

std::string
encodePointResult(std::uint64_t planIndex,
                  const std::string& recordPayload)
{
    ByteWriter w;
    w.u64(planIndex);
    w.str(recordPayload);
    return w.take();
}

bool
decodePointResult(const std::string& body, std::uint64_t* planIndex,
                  std::string* recordPayload)
{
    ByteReader r(body);
    *planIndex = r.u64();
    *recordPayload = r.str();
    return !r.failed() && r.atEnd();
}

std::string
encodeDaemonStats(const DaemonStats& s)
{
    ByteWriter w;
    w.b(s.active);
    w.u32(s.jobs);
    w.u64(s.leasesIssued);
    w.u64(s.leasesExpired);
    w.u64(s.leasesReassigned);
    w.u64(s.heartbeats);
    w.u64(s.workerLost);
    w.u64(s.resultsStreamed);
    w.u64(s.acksReceived);
    w.u64(s.replayed);
    w.u64(s.executed);
    w.u64(s.reconnects);
    w.u64(s.cacheHits);
    w.u64(s.cacheMisses);
    w.u64(s.compiles);
    return w.take();
}

bool
decodeDaemonStats(const std::string& body, DaemonStats* s)
{
    ByteReader r(body);
    s->active = r.b();
    s->jobs = r.u32();
    s->leasesIssued = r.u64();
    s->leasesExpired = r.u64();
    s->leasesReassigned = r.u64();
    s->heartbeats = r.u64();
    s->workerLost = r.u64();
    s->resultsStreamed = r.u64();
    s->acksReceived = r.u64();
    s->replayed = r.u64();
    s->executed = r.u64();
    s->reconnects = r.u64();
    s->cacheHits = r.u64();
    s->cacheMisses = r.u64();
    s->compiles = r.u64();
    return !r.failed() && r.atEnd();
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
    std::uint64_t received = 0;
    for (const bool h : have)
        received += h ? 1 : 0;

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
                rec.pointFingerprint != fps[index]) {
                if (std::getenv("PROCOUP_SERVICE_DEBUG"))
                    std::fprintf(
                        stderr,
                        "client: reject result idx=%llu fp=%s want=%s\n",
                        static_cast<unsigned long long>(index),
                        rec.pointFingerprint.c_str(),
                        index < plan.size() ? fps[index].c_str() : "?");
                return false;
            }
            // At-least-once delivery: a replayed duplicate after a
            // reconnect is dropped here, which is exactly what makes
            // interrupted sessions bit-identical to clean ones.
            if (!have[index]) {
                have[index] = true;
                records[index] = std::move(rec);
                ++received;
            }
            const std::string ack = kindFrame(
                FrameKind::StreamAck,
                [&] {
                    ByteWriter w;
                    w.u64(received);
                    return w.take();
                }());
            writeAllFd(fd, ack.data(), ack.size());
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
    // The daemon may close the socket the moment it has streamed the
    // last frame, racing any stream-ack still in flight; a write to
    // the closed socket must surface as EPIPE, not kill the client.
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
