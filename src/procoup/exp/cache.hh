#ifndef PROCOUP_EXP_CACHE_HH
#define PROCOUP_EXP_CACHE_HH

/**
 * @file
 * Two-tier compile cache for experiment sweeps.
 *
 * Many sweep points differ only in runtime knobs — interconnect
 * scheme, memory model, arbitration policy, active-set size — that
 * sched::compile() never reads. The cache keys on (source text,
 * compile options, config::MachineConfig::compileFingerprint()) so
 * every identical compilation happens exactly once per sweep, no
 * matter how many points or worker threads share it.
 *
 * Concurrency: the first caller of a key compiles; concurrent callers
 * of the same key block on a shared_future until the result (or the
 * CompileError) is ready, so a compilation is never duplicated even
 * under a race. Results are immutable (shared_ptr<const CompileResult>)
 * and safe to read from any thread.
 *
 * Persistence (setDiskDir): an optional on-disk, content-addressed
 * second tier shared across processes and runs. An entry lives at
 * <dir>/<fnv1a64(key)>.pcc as a checksummed frame (exp/serialize.hh)
 * holding the full key string plus the serialized CompileResult;
 * publishing goes through a temp file + atomic rename, so concurrent
 * writers race benignly (last rename wins, both wrote identical
 * bytes) and a crashed writer leaves no visible entry. A truncated,
 * bit-flipped, wrong-version, or hash-colliding entry fails its
 * checksum/key check, and an entry that decodes to a program the
 * requesting machine cannot run fails config::validateProgram; either
 * is counted corrupt and silently recompiled (and re-published) —
 * corruption can cost time, never correctness. Compile *errors* are
 * memoized in memory only, never on disk.
 */

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "procoup/config/machine.hh"
#include "procoup/sched/compiler.hh"

namespace procoup {
namespace exp {

class CompileCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;

        /** Actual sched::compile() invocations (misses the disk tier
         *  could not serve). The "zero recompiles" acceptance counter
         *  for journal replays and warm disk caches. */
        std::uint64_t compiles = 0;

        /** Disk-tier traffic (all zero when no disk dir is set). */
        std::uint64_t diskHits = 0;
        std::uint64_t diskStores = 0;
        std::uint64_t diskCorrupt = 0;  ///< invalid entries recompiled

        double hitRate() const
        {
            const std::uint64_t total = hits + misses;
            return total ? static_cast<double>(hits) / total : 0.0;
        }
    };

    /** Compile (or fetch the memoized compilation of) @p source.
     *  @param[out] was_hit optionally set to whether this call was
     *  served without compiling (memory or disk tier).
     *  @throws CompileError exactly as sched::compile would. */
    std::shared_ptr<const sched::CompileResult>
    compile(const std::string& source,
            const config::MachineConfig& machine,
            const sched::CompileOptions& opts, bool* was_hit = nullptr);

    /** Disabled: every compile() call compiles afresh (for measuring
     *  the legacy, cacheless behavior). Counts everything as a miss
     *  and bypasses the disk tier too. */
    void setEnabled(bool enabled) { _enabled = enabled; }
    bool enabled() const { return _enabled; }

    /** Attach the persistent tier rooted at @p dir (created if
     *  missing; "" detaches). Safe to call before any compile(). */
    void setDiskDir(const std::string& dir);

    /** A run's set-up in one call: caching on or off and, with caching
     *  on, the persistent tier at @p diskDir ("" leaves the tier as it
     *  is). Call before any compile(). */
    void configure(bool enabled, const std::string& diskDir);

    Stats stats() const;

    /** The cache key; exposed for tests. */
    static std::string key(const std::string& source,
                           const config::MachineConfig& machine,
                           const sched::CompileOptions& opts);

    /** The disk path @p key would be stored at under @p dir. */
    static std::string entryPath(const std::string& dir,
                                 const std::string& key);

  private:
    using Entry =
        std::shared_future<std::shared_ptr<const sched::CompileResult>>;

    std::shared_ptr<const sched::CompileResult>
    diskLoad(const std::string& key,
             const config::MachineConfig& machine);
    void diskStore(const std::string& key,
                   const sched::CompileResult& result);

    bool _enabled = true;
    std::string _diskDir;
    mutable std::mutex _mu;
    std::map<std::string, Entry> _entries;
    Stats _stats;
};

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_CACHE_HH
