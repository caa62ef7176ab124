#ifndef PROCOUP_EXP_SERIALIZE_HH
#define PROCOUP_EXP_SERIALIZE_HH

/**
 * @file
 * Binary serialization for the crash-safe execution layer.
 *
 * Four consumers share one byte format:
 *  - the results journal (exp/journal.hh) persists executed sweep
 *    outcomes so interrupted sweeps resume instead of re-running;
 *  - the persistent compile cache (exp/cache.hh) publishes whole
 *    sched::CompileResult objects across processes and runs;
 *  - the out-of-process worker protocol (exp/worker.hh) ships one
 *    executed outcome per point back to the supervisor over a pipe;
 *  - the sweep daemon's frame bodies (exp/service.hh) carry plans,
 *    leases, results and daemon statistics over a socket.
 *
 * serialize.cc holds every one of these byte layouts. All four move
 * bytes between processes on the *same* host (same toolchain, same
 * endianness), so the encoding is native-endian little-endian x86-64
 * with explicit fixed-width fields — simple, dense, and versioned.
 * kFormatVersion gates every reader: a version bump silently
 * invalidates old journals and cache entries (they are rebuilt, never
 * misread).
 *
 * Every persisted artifact is wrapped in a self-delimiting frame:
 *
 *     magic u32 | version u32 | payloadLen u64 | fnv1a64(payload) | payload
 *
 * Truncated frames (a crash mid-append) and corrupted payloads (a
 * flipped bit) both fail the checksum and are discarded by readers;
 * writers publish via temp-file + atomic rename, so a reader never
 * observes a half-written file under a final name.
 */

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "procoup/core/node.hh"
#include "procoup/sched/compiler.hh"
#include "procoup/sim/stats.hh"

namespace procoup {
namespace exp {

/** Bump on any encoding change: readers reject other versions. */
constexpr std::uint32_t kFormatVersion = 1;

/** Frame magic ("PCFR" little-endian). */
constexpr std::uint32_t kFrameMagic = 0x52464350u;

/** FNV-1a 64-bit over @p data (the frame and entry checksum). */
std::uint64_t fnv1a64(const void* data, std::size_t len);
std::uint64_t fnv1a64(const std::string& s);

/** fnv1a64 rendered as 16 lowercase hex digits (file names, ids). */
std::string fnv1a64Hex(const std::string& s);

/** Length prefixes above this are rejected before any allocation. */
constexpr std::uint64_t kMaxLength = 1ull << 28;

/**
 * Append-only little-endian byte sink.
 *
 * ByteWriter and ByteReader share one field vocabulary, so each wire
 * type has one field list, `template <class Io, class T> void
 * fields(Io&, T&)` in exp/serialize.cc, that encodes when Io is a
 * ByteWriter (T const) and decodes when it is a ByteReader. A method
 * names the wire width; a trailing max bounds what the reader accepts
 * and is ignored here.
 */
class ByteWriter
{
  public:
    static constexpr bool reading = false;

    void u8(std::uint8_t v) { _bytes.push_back(static_cast<char>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u16(std::uint16_t v) { put(&v, 2); }
    void u32(std::uint32_t v) { put(&v, 4); }
    void u64(std::uint64_t v) { put(&v, 8); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) { put(&v, 8); }
    void str(std::string_view s)
    {
        u64(s.size());
        _bytes.append(s);
    }

    // Bounded fields; an enum travels as its value, bounded by the
    // last one declared.
    template <class T, class M>
    void u8(const T& v, M) { u8(static_cast<std::uint8_t>(v)); }
    template <class T, class M>
    void u16(const T& v, M) { u16(static_cast<std::uint16_t>(v)); }
    template <class T, class M>
    void i64(const T& v, M) { i64(static_cast<std::int64_t>(v)); }

    // The length prefix of the sequence that follows.
    template <class C>
    void size8(const C& c) { u8(static_cast<std::uint8_t>(c.size())); }
    template <class C>
    void size16(const C& c) { u16(static_cast<std::uint16_t>(c.size())); }
    template <class C>
    void size32(const C& c, std::uint64_t)
    {
        u32(static_cast<std::uint32_t>(c.size()));
    }
    template <class C>
    void size64(const C& c, std::uint64_t = 0) { u64(c.size()); }

    /** A length-prefixed map; @p each(key, value) writes one entry. */
    template <class M, class F>
    void map64(const M& m, F&& each)
    {
        u64(m.size());
        for (const auto& [k, v] : m)
            each(k, v);
    }

    const std::string& bytes() const { return _bytes; }
    std::string take() { return std::move(_bytes); }

  private:
    void put(const void* v, std::size_t n)
    {
        _bytes.append(static_cast<const char*>(v), n);
    }

    std::string _bytes;
};

/** Bounds-checked reader over a byte buffer. Any overrun or malformed
 *  field sets failed() and pins the cursor; callers check once at the
 *  end instead of wrapping every read. A field-list read fails unless
 *  the value fits the field's type and, when bounded, lies in
 *  [0, max]; a length prefix fails above its bound or above the bytes
 *  left, since every element takes at least one. */
class ByteReader
{
  public:
    static constexpr bool reading = true;

    explicit ByteReader(std::string_view bytes) : _bytes(bytes) {}

    std::uint8_t u8() { return get<std::uint8_t>(); }
    bool b() { return u8() != 0; }
    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64() { return get<double>(); }
    std::string str();

    template <class T, class... M>
    void u8(T& v, M... max) { set(v, u8(), max...); }
    template <class T, class... M>
    void u16(T& v, M... max) { set(v, u16(), max...); }
    template <class T>
    void u32(T& v) { set(v, u32()); }
    template <class T>
    void u64(T& v) { set(v, u64()); }
    template <class T, class... M>
    void i64(T& v, M... max) { set(v, i64(), max...); }
    void b(bool& v) { v = b(); }
    void f64(double& v) { v = f64(); }
    void str(std::string& s) { s = str(); }

    template <class C>
    void size8(C& c) { c.resize(length(u8(), kMaxLength)); }
    template <class C>
    void size16(C& c) { c.resize(length(u16(), kMaxLength)); }
    template <class C>
    void size32(C& c, std::uint64_t max) { c.resize(length(u32(), max)); }
    template <class C>
    void size64(C& c, std::uint64_t max = kMaxLength)
    {
        c.resize(length(u64(), max));
    }

    /** A length-prefixed map; @p each(key, value) reads one entry.
     *  The entries replace the map's contents. */
    template <class M, class F>
    void map64(M& m, F&& each)
    {
        m.clear();
        for (std::uint64_t n = length(u64(), kMaxLength); n > 0; --n) {
            typename M::key_type k{};
            typename M::mapped_type v{};
            each(k, v);
            m.emplace(std::move(k), std::move(v));
        }
    }

    bool failed() const { return _failed; }
    bool atEnd() const { return _pos == _bytes.size(); }

  private:
    /** A fixed-width field, or 0 past the end. Defined here so that
     *  every field read inlines to a bounds check and a load. */
    template <class T>
    T get()
    {
        T v{};
        if (_failed || _bytes.size() - _pos < sizeof v) {
            _failed = true;
        } else {
            std::memcpy(&v, _bytes.data() + _pos, sizeof v);
            _pos += sizeof v;
        }
        return v;
    }

    template <class T, class W>
    void set(T& v, W w)
    {
        if (std::in_range<T>(w))
            v = static_cast<T>(w);
        else
            _failed = true;
    }

    template <class T, class W, class M>
    void set(T& v, W w, M max)
    {
        if (std::cmp_greater_equal(w, 0) &&
            std::cmp_less_equal(w, static_cast<std::uint64_t>(max)))
            v = static_cast<T>(w);
        else
            _failed = true;
    }

    std::uint64_t length(std::uint64_t n, std::uint64_t max)
    {
        if (!_failed && n <= max && n <= _bytes.size() - _pos)
            return n;
        _failed = true;
        return 0;
    }

    std::string_view _bytes;
    std::size_t _pos = 0;
    bool _failed = false;
};

/** Wrap @p payload in a checksummed frame (see file header). */
std::string frame(std::string_view payload);

/** Parse one frame starting at @p offset of @p bytes. On success,
 *  returns true, sets @p payload and advances @p offset past the
 *  frame. A truncated, corrupt, or wrong-version frame returns false
 *  (offset unchanged) — the caller treats it as end-of-journal. */
bool readFrame(const std::string& bytes, std::size_t& offset,
               std::string* payload);

/** Frame header size in bytes (magic + version + len + checksum). */
constexpr std::size_t kFrameHeaderSize = 4 + 4 + 8 + 8;

// Entry points for callers outside the codec: perfbench digests
// RunStats, memory Values and CompileResults; the compile cache keeps
// CompileResults. readCompileResult returns false (without throwing)
// on a malformed buffer so the cache can fall back to compiling.
void writeValue(ByteWriter& w, const isa::Value& v);
void writeRunStats(ByteWriter& w, const sim::RunStats& s);
void writeCompileResult(ByteWriter& w, const sched::CompileResult& c);
bool readCompileResult(ByteReader& r, sched::CompileResult* c);

/**
 * The persisted subset of one executed sweep point — everything the
 * render/report/analysis paths read from a RunOutcome, minus the
 * compiled instruction stream (replayed points never re-simulate, so
 * only the program's symbol table, needed for result readback, is
 * kept). One encoding serves the journal and the worker protocol.
 */
struct OutcomeRecord
{
    std::string label;
    std::string pointFingerprint;

    /** Exception class captured in a worker (0 = completed, possibly
     *  as a fail-safe error record; 1 = SimError to rethrow; 2 =
     *  CompileError to rethrow; 3 = other std::exception). */
    std::uint8_t threw = 0;

    bool failed = false;
    std::uint8_t errorKind = 0;
    std::uint64_t errorCycle = 0;
    std::string error;
    std::uint32_t retries = 0;
    bool compileCached = false;
    double wallMs = 0.0;

    sim::RunStats stats;
    std::vector<isa::Value> memory;
    std::map<std::string, isa::Symbol> symbols;
    std::uint32_t memorySize = 0;
    std::vector<sched::FuncScheduleInfo> funcInfo;
};

std::string encodeOutcomeRecord(const OutcomeRecord& rec);
bool decodeOutcomeRecord(std::string_view payload, OutcomeRecord* rec);

/** Write @p bytes to @p path via same-directory temp file + rename;
 *  returns false (and cleans up) on any I/O error. */
bool atomicWriteFile(const std::string& path, const std::string& bytes);

/** Read a whole file; returns false if it cannot be opened or read
 *  (an absent file is false). */
bool readWholeFile(const std::string& path, std::string* out);

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_SERIALIZE_HH
