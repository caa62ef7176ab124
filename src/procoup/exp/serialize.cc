#include "procoup/exp/serialize.hh"

#include <cerrno>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sys/stat.h>
#include <unistd.h>

#include "procoup/config/validate.hh"
#include "procoup/exp/service.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

std::uint64_t
fnv1a64(const void* data, std::size_t len)
{
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnv1a64(const std::string& s)
{
    return fnv1a64(s.data(), s.size());
}

std::string
fnv1a64Hex(const std::string& s)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(s)));
    return buf;
}

std::string
ByteReader::str()
{
    const std::uint64_t n = u64();
    if (_failed || _bytes.size() - _pos < n) {
        _failed = true;
        return {};
    }
    std::string s(_bytes.substr(_pos, n));
    _pos += n;
    return s;
}

std::string
frame(std::string_view payload)
{
    ByteWriter w;
    w.u32(kFrameMagic);
    w.u32(kFormatVersion);
    w.u64(payload.size());
    w.u64(fnv1a64(payload.data(), payload.size()));
    std::string out = w.take();
    out += payload;
    return out;
}

bool
readFrame(const std::string& bytes, std::size_t& offset,
          std::string* payload)
{
    if (bytes.size() - offset < kFrameHeaderSize ||
        offset > bytes.size())
        return false;
    std::uint32_t magic, version;
    std::uint64_t len, sum;
    std::memcpy(&magic, bytes.data() + offset, 4);
    std::memcpy(&version, bytes.data() + offset + 4, 4);
    std::memcpy(&len, bytes.data() + offset + 8, 8);
    std::memcpy(&sum, bytes.data() + offset + 16, 8);
    if (magic != kFrameMagic || version != kFormatVersion)
        return false;
    if (bytes.size() - offset - kFrameHeaderSize < len)
        return false;  // torn tail: crash mid-append
    const char* body = bytes.data() + offset + kFrameHeaderSize;
    if (fnv1a64(body, len) != sum)
        return false;  // corrupt payload
    payload->assign(body, len);
    offset += kFrameHeaderSize + len;
    return true;
}

// ---- Field lists --------------------------------------------------------
//
// One field list per wire type, instantiated with ByteWriter (T const)
// to encode and ByteReader to decode; see ByteWriter in serialize.hh.
// Each list names every field once, in wire order. Only Value and
// Operand keep a write/read pair, because a tag selects their payload.
// An enum's bound is its last declared value: an enumerator appended
// to one of these enums must move its bound here.

namespace {

/** T is X or const X. */
template <class T, class X>
concept Field = std::same_as<std::remove_const_t<T>, X>;

using SymbolTable = std::map<std::string, isa::Symbol>;
using FuncInfo = std::vector<sched::FuncScheduleInfo>;

void
fields(ByteWriter& w, const isa::Value& v)
{
    w.b(v.isFloat());
    if (v.isFloat())
        w.f64(v.rawFloat());
    else
        w.i64(v.rawInt());
}

void
fields(ByteReader& r, isa::Value& v)
{
    v = r.b() ? isa::Value::makeFloat(r.f64())
              : isa::Value::makeInt(r.i64());
}

template <class Io, Field<isa::RegRef> T>
void
fields(Io& io, T& ref)
{
    io.u16(ref.cluster);
    io.u16(ref.index);
}

void
fields(ByteWriter& w, const isa::Operand& o)
{
    w.u8(o.kind(), isa::Operand::Kind::Imm);
    if (o.isReg())
        fields(w, o.reg());
    else if (o.isImm())
        fields(w, o.imm());
}

void
fields(ByteReader& r, isa::Operand& o)
{
    auto kind = isa::Operand::Kind::None;
    r.u8(kind, isa::Operand::Kind::Imm);
    o = isa::Operand();
    if (kind == isa::Operand::Kind::Reg) {
        isa::RegRef ref;
        fields(r, ref);
        o = isa::Operand::makeReg(ref);
    } else if (kind == isa::Operand::Kind::Imm) {
        isa::Value v;
        fields(r, v);
        o = isa::Operand::makeImm(v);
    }
}

template <class Io, Field<sim::StallCounts> T>
void
fields(Io& io, T& counts)
{
    for (auto& v : counts)
        io.u64(v);
}

template <class Io, Field<sim::RunStats> T>
void
fields(Io& io, T& s)
{
    io.u64(s.cycles);
    for (auto& v : s.opsByUnit)
        io.u64(v);
    io.size64(s.opsByFu);
    for (auto& v : s.opsByFu)
        io.u64(v);
    io.u64(s.totalOps);
    io.u64(s.memAccesses);
    io.u64(s.memHits);
    io.u64(s.memMisses);
    io.u64(s.memParked);
    io.u64(s.memParkedCycles);
    io.u64(s.memBankDelayCycles);
    io.u64(s.opCacheHits);
    io.u64(s.opCacheMisses);
    io.u64(s.opCacheLineWaitCycles);
    io.u64(s.writebacks);
    io.u64(s.writebackStallCycles);
    io.u64(s.remoteWrites);
    io.size64(s.wbGrantsByCluster);
    for (auto& v : s.wbGrantsByCluster)
        io.u64(v);
    io.size64(s.wbDenialsByCluster);
    for (auto& v : s.wbDenialsByCluster)
        io.u64(v);
    io.size64(s.stallsByFu);
    for (auto& c : s.stallsByFu)
        fields(io, c);
    io.size64(s.stallsByCluster);
    for (auto& c : s.stallsByCluster)
        fields(io, c);
    fields(io, s.stallsTotal);
    io.u64(s.threadsSpawned);
    io.u32(s.peakActiveThreads);
    io.size64(s.threads);
    for (auto& t : s.threads) {
        io.str(t.name);
        io.u64(t.spawnCycle);
        io.u64(t.endCycle);
        io.u64(t.opsIssued);
        fields(io, t.stalls);
    }
    io.size64(s.marks);
    for (auto& m : s.marks) {
        io.u32(m.thread);
        io.i64(m.id);
        io.u64(m.cycle);
    }
    io.b(s.faultsEnabled);
    io.u64(s.faults.memJitterEvents);
    io.u64(s.faults.memJitterCycles);
    io.u64(s.faults.memBurstEvents);
    io.u64(s.faults.memBurstAccesses);
    io.u64(s.faults.memBurstCycles);
    io.u64(s.faults.bankStormEvents);
    io.u64(s.faults.bankStormDelayCycles);
    io.u64(s.faults.fuBubbleEvents);
    io.u64(s.faults.fuBubbleCycles);
    io.u64(s.faults.opcacheFlushes);
    io.u64(s.faults.spawnDelayEvents);
    io.u64(s.faults.spawnDelayCycles);
}

template <class Io, Field<isa::Operation> T>
void
fields(Io& io, T& op)
{
    io.u16(op.opcode, isa::Opcode::NOP);
    io.size8(op.srcs);
    for (auto& src : op.srcs)
        fields(io, src);
    io.size8(op.dsts);
    for (auto& dst : op.dsts)
        fields(io, dst);
    io.u8(op.flavor.pre, isa::MemPre::Empty);
    io.u8(op.flavor.post, isa::MemPost::SetEmpty);
    io.u32(op.branchTarget);
    io.u32(op.forkTarget);
    io.i64(op.markId);
}

template <class Io, Field<SymbolTable> T>
void
fields(Io& io, T& symbols)
{
    io.map64(symbols, [&io](auto& name, auto& sym) {
        io.str(name);
        io.u32(sym.base);
        io.u32(sym.size);
    });
}

template <class Io, Field<FuncInfo> T>
void
fields(Io& io, T& info)
{
    io.size64(info);
    for (auto& f : info) {
        io.str(f.name);
        io.size64(f.blockRows);
        for (auto& v : f.blockRows)
            io.u32(v);
        io.u32(f.totalRows);
        io.u32(f.totalOps);
        io.u32(f.copiesInserted);
        io.size64(f.regCount);
        for (auto& v : f.regCount)
            io.u32(v);
    }
}

template <class Io, Field<isa::Program> T>
void
fields(Io& io, T& p)
{
    io.size64(p.threads);
    for (auto& t : p.threads) {
        io.str(t.name);
        io.size64(t.instructions);
        for (auto& inst : t.instructions) {
            io.size16(inst.slots);
            for (auto& slot : inst.slots) {
                io.u16(slot.fu);
                fields(io, slot.op);
            }
        }
        io.size16(t.paramHomes);
        for (auto& h : t.paramHomes)
            fields(io, h);
        io.size16(t.regCount);
        for (auto& v : t.regCount)
            io.u32(v);
    }
    io.u32(p.entry);
    io.u32(p.memorySize);
    io.size64(p.memInits);
    for (auto& m : p.memInits) {
        io.u32(m.addr);
        fields(io, m.value);
        io.b(m.full);
    }
    fields(io, p.symbols);
}

template <class Io, Field<sched::CompileResult> T>
void
fields(Io& io, T& c)
{
    fields(io, c.program);
    fields(io, c.funcInfo);
}

/** The JSON meta-header that leads a record, so external tooling
 *  (scripts/check_stats_schema.py --journal) can validate journal
 *  records without a C++ decoder. */
std::string
metaHeader(const OutcomeRecord& rec)
{
    return strCat(
        "{\"label\": ", jsonQuote(rec.label), ", \"fingerprint\": ",
        jsonQuote(rec.pointFingerprint), ", \"threw\": ",
        static_cast<int>(rec.threw), ", \"failed\": ",
        rec.failed ? "true" : "false", ", \"error_kind\": ",
        jsonQuote(simErrorKindName(
            static_cast<SimErrorKind>(rec.errorKind))),
        ", \"retries\": ", rec.retries, ", \"compile_cached\": ",
        rec.compileCached ? "true" : "false", "}");
}

template <class Io, Field<OutcomeRecord> T>
void
fields(Io& io, T& rec)
{
    std::string header;  // read back and dropped
    if constexpr (!Io::reading)
        header = metaHeader(rec);
    io.str(header);
    io.str(rec.label);
    io.str(rec.pointFingerprint);
    io.u8(rec.threw, 3);
    io.b(rec.failed);
    io.u8(rec.errorKind, SimErrorKind::WorkerLost);
    io.u64(rec.errorCycle);
    io.str(rec.error);
    io.u32(rec.retries);
    io.b(rec.compileCached);
    io.f64(rec.wallMs);
    fields(io, rec.stats);
    io.size64(rec.memory);
    for (auto& v : rec.memory)
        fields(io, v);
    fields(io, rec.symbols);
    io.u32(rec.memorySize);
    fields(io, rec.funcInfo);
}

template <class Io, Field<config::MachineConfig> T>
void
fields(Io& io, T& m)
{
    io.str(m.name);
    io.size32(m.clusters, 1u << 16);
    for (auto& c : m.clusters) {
        io.size32(c.units, 1u << 16);
        for (auto& u : c.units) {
            io.u8(u.type, isa::UnitType::Branch);
            io.i64(u.latency);
        }
    }
    io.u8(m.interconnect, config::InterconnectScheme::SharedBus);
    io.u8(m.arbitration, config::ArbitrationPolicy::RoundRobin);
    io.i64(m.memory.hitLatency);
    io.f64(m.memory.missRate);
    io.i64(m.memory.missPenaltyMin);
    io.i64(m.memory.missPenaltyMax);
    io.i64(m.memory.numBanks);
    io.b(m.memory.modelBankConflicts);
    io.u64(m.memory.seed);
    io.b(m.opCache.enabled);
    io.i64(m.opCache.linesPerUnit);
    io.i64(m.opCache.rowsPerLine);
    io.i64(m.opCache.missPenalty);
    io.i64(m.maxActiveThreads);
    io.i64(m.swapOutIdleCycles);
    io.i64(m.deadlockCycleLimit);
}

template <class Io, Field<fault::FaultPlan> T>
void
fields(Io& io, T& f)
{
    io.b(f.enabled);
    io.u64(f.seed);
    io.f64(f.memJitterProb);
    io.i64(f.memJitterMax);
    io.f64(f.memBurstProb);
    io.i64(f.memBurstLength);
    io.i64(f.memBurstPenalty);
    io.f64(f.bankStormProb);
    io.i64(f.bankStormCycles);
    io.f64(f.fuBubbleProb);
    io.i64(f.fuBubbleMax);
    io.u64(f.opcacheFlushPeriod);
    io.f64(f.spawnDelayProb);
    io.i64(f.spawnDelayMax);
}

template <class Io, Field<SweepPoint> T>
void
fields(Io& io, T& p)
{
    io.str(p.label);
    fields(io, p.machine);
    io.str(p.source);
    io.u8(p.mode, core::SimMode::Coupled);
    io.u8(p.options.mode, sched::ScheduleMode::Unrestricted);
    io.i64(p.options.forkClones);
    io.b(p.options.runOptimizer);
    io.str(p.verifyBenchmark);
    io.i64(p.benchmarkId);
    io.b(p.traceStalls);
    fields(io, p.simOptions.faults);
    io.u64(p.simOptions.limits.maxCycles);
    io.f64(p.simOptions.limits.wallClockDeadlineMs);
    io.u64(p.simOptions.sanitizeEveryCycles);
}

/** The RunnerOptions that change a point's result. */
template <class Io, class Options>
void
knobFields(Io& io, Options& options)
{
    io.b(options.cacheEnabled);
    io.b(options.failSafe);
    io.b(options.retryFaulted);
    int retries = options.retryPolicy.maxAttempts - 1;
    io.i64(retries, 1 << 20);
    if constexpr (Io::reading)
        options.retryPolicy.maxAttempts = retries + 1;
}

/** plan-submit body: the plan's name, the knobs that change results,
 *  then its points. */
template <class Io, class Name, class Options, class Points>
void
submitFields(Io& io, Name& name, Options& options, Points& points)
{
    io.str(name);
    knobFields(io, options);
    io.size64(points, 1u << 20);
    for (auto& p : points)
        fields(io, p);
}

/** point-lease body: the worker's heartbeat cadence, the disk cache it
 *  compiles through, the knobs, the point's fingerprint, the point. */
template <class Io, class Ms, class Options, class Fp, class Point>
void
leaseFields(Io& io, Ms& heartbeatMs, Options& options, Fp& fingerprint,
            Point& point)
{
    io.f64(heartbeatMs);
    io.str(options.diskCacheDir);
    knobFields(io, options);
    io.str(fingerprint);
    fields(io, point);
}

/** point-result body: the plan index, then the record payload. */
template <class Io, class Index, class Payload>
void
resultFields(Io& io, Index& planIndex, Payload& recordPayload)
{
    io.u64(planIndex);
    io.str(recordPayload);
}

template <class Io, Field<DaemonStats> T>
void
fields(Io& io, T& s)
{
    io.b(s.active);
    io.u32(s.jobs);
    io.u64(s.leasesIssued);
    io.u64(s.leasesExpired);
    io.u64(s.leasesReassigned);
    io.u64(s.heartbeats);
    io.u64(s.workerLost);
    io.u64(s.resultsStreamed);
    io.u64(s.replayed);
    io.u64(s.executed);
    io.u64(s.reconnects);
    io.u64(s.cacheHits);
    io.u64(s.cacheMisses);
    io.u64(s.compiles);
}

} // namespace

// ---- Entry points -------------------------------------------------------

void
writeValue(ByteWriter& w, const isa::Value& v)
{
    fields(w, v);
}

void
writeRunStats(ByteWriter& w, const sim::RunStats& s)
{
    fields(w, s);
}

void
writeCompileResult(ByteWriter& w, const sched::CompileResult& c)
{
    fields(w, c);
}

bool
readCompileResult(ByteReader& r, sched::CompileResult* c)
{
    fields(r, *c);
    return !r.failed();
}

std::string
encodeOutcomeRecord(const OutcomeRecord& rec)
{
    ByteWriter w;
    fields(w, rec);
    return w.take();
}

bool
decodeOutcomeRecord(std::string_view payload, OutcomeRecord* rec)
{
    ByteReader r(payload);
    fields(r, *rec);
    return !r.failed() && r.atEnd();
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
    submitFields(w, plan.name(), options, plan.points());
    return w.take();
}

namespace {

/** Binding a machine the simulator cannot run aborts the point, so a
 *  decoder treats such a machine as malformed bytes. */
bool
runnable(const config::MachineConfig& machine)
{
    try {
        config::validateMachine(machine);
        return true;
    } catch (const CompileError&) {
        return false;
    }
}

/** What a decoded body's RunnerOptions start from: every option the
 *  body does not carry at its default, verification failures left to
 *  the submitting side. */
RunnerOptions
decodedOptions()
{
    RunnerOptions options;
    options.exitOnVerifyFailure = false;
    return options;
}

} // namespace

bool
decodePlanSubmit(const std::string& body, PlanEnvelope* env)
{
    std::string name;
    std::vector<SweepPoint> points;
    env->options = decodedOptions();
    ByteReader r(body);
    submitFields(r, name, env->options, points);
    if (r.failed() || !r.atEnd())
        return false;
    // ExperimentPlan::add aborts on an empty or repeated label; tryAdd
    // refuses it instead.
    env->plan = ExperimentPlan(std::move(name));
    for (SweepPoint& p : points)
        if (!runnable(p.machine) || !env->plan.tryAdd(std::move(p)))
            return false;
    return true;
}

std::string
encodePointLease(const SweepPoint& point, const std::string& fingerprint,
                 const RunnerOptions& options, double heartbeatMs)
{
    ByteWriter w;
    leaseFields(w, heartbeatMs, options, fingerprint, point);
    return w.take();
}

bool
decodePointLease(const std::string& body, LeasedPoint* lease)
{
    lease->options = decodedOptions();
    ByteReader r(body);
    leaseFields(r, lease->heartbeatMs, lease->options, lease->fingerprint,
                lease->point);
    return !r.failed() && r.atEnd() && !lease->point.label.empty() &&
           runnable(lease->point.machine);
}

std::string
encodePointResult(std::uint64_t planIndex, std::string_view recordPayload)
{
    ByteWriter w;
    resultFields(w, planIndex, recordPayload);
    return w.take();
}

bool
decodePointResult(const std::string& body, std::uint64_t* planIndex,
                  std::string* recordPayload)
{
    ByteReader r(body);
    resultFields(r, *planIndex, *recordPayload);
    return !r.failed() && r.atEnd();
}

std::string
encodeDaemonStats(const DaemonStats& s)
{
    ByteWriter w;
    fields(w, s);
    return w.take();
}

bool
decodeDaemonStats(const std::string& body, DaemonStats* s)
{
    ByteReader r(body);
    fields(r, *s);
    return !r.failed() && r.atEnd();
}

bool
atomicWriteFile(const std::string& path, const std::string& bytes)
{
    const std::string tmp =
        strCat(path, ".tmp.", static_cast<unsigned long>(::getpid()));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readWholeFile(const std::string& path, std::string* out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct Closer
    {
        int fd;
        ~Closer() { ::close(fd); }
    } closer{fd};

    // The size only sizes the buffer: the read runs to EOF, so a file
    // that grows meanwhile, or reports no size, is still read whole.
    // One byte of slack lets a file of the stated size end in one read
    // plus the read that sees EOF.
    struct stat st {};
    const bool sized = ::fstat(fd, &st) == 0 && st.st_size > 0;
    std::string bytes(sized ? static_cast<std::size_t>(st.st_size) + 1
                            : std::size_t{4096},
                      '\0');
    std::size_t len = 0;
    for (;;) {
        if (len == bytes.size())
            bytes.resize(2 * len);
        const ssize_t n = ::read(fd, bytes.data() + len, bytes.size() - len);
        if (n == 0)
            break;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        len += static_cast<std::size_t>(n);
    }
    bytes.resize(len);
    *out = std::move(bytes);
    return true;
}

} // namespace exp
} // namespace procoup
