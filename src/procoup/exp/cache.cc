#include "procoup/exp/cache.hh"

#include <sys/stat.h>

#include "procoup/config/validate.hh"
#include "procoup/exp/serialize.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

std::string
CompileCache::key(const std::string& source,
                  const config::MachineConfig& machine,
                  const sched::CompileOptions& opts)
{
    return strCat(machine.compileFingerprint(), "|mode=",
                  static_cast<int>(opts.mode), "|clones=",
                  opts.forkClones, "|opt=", opts.runOptimizer, "|",
                  source);
}

std::string
CompileCache::entryPath(const std::string& dir, const std::string& key)
{
    return strCat(dir, "/", fnv1a64Hex(key), ".pcc");
}

void
CompileCache::setDiskDir(const std::string& dir)
{
    std::lock_guard<std::mutex> lock(_mu);
    _diskDir = dir;
    if (!_diskDir.empty())
        ::mkdir(_diskDir.c_str(), 0777);  // best effort: load/store
                                          // failures degrade to misses
}

void
CompileCache::configure(bool enabled, const std::string& diskDir)
{
    _enabled = enabled;
    if (enabled && !diskDir.empty() && diskDir != _diskDir)
        setDiskDir(diskDir);
}

std::shared_ptr<const sched::CompileResult>
CompileCache::diskLoad(const std::string& k,
                       const config::MachineConfig& machine)
{
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(_mu);
        dir = _diskDir;
    }
    if (dir.empty())
        return nullptr;

    std::string bytes;
    const std::string path = entryPath(dir, k);
    if (!readWholeFile(path, &bytes))
        return nullptr;  // absent: a plain miss, not corruption

    auto corrupt = [&]() -> std::shared_ptr<const sched::CompileResult> {
        std::lock_guard<std::mutex> lock(_mu);
        ++_stats.diskCorrupt;
        return nullptr;
    };

    std::size_t offset = 0;
    std::string payload;
    if (!readFrame(bytes, offset, &payload) || offset != bytes.size())
        return corrupt();  // torn, bit-flipped, or wrong version

    ByteReader r(payload);
    if (r.str() != k)
        return corrupt();  // fnv collision or foreign entry
    auto result = std::make_shared<sched::CompileResult>();
    if (!readCompileResult(r, result.get()) || !r.atEnd())
        return corrupt();
    try {
        // Well framed is not runnable: a program the machine cannot
        // execute would fail every point that reads this entry.
        config::validateProgram(result->program, machine);
    } catch (const CompileError&) {
        return corrupt();
    }

    std::lock_guard<std::mutex> lock(_mu);
    ++_stats.diskHits;
    return result;
}

void
CompileCache::diskStore(const std::string& k,
                        const sched::CompileResult& result)
{
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(_mu);
        dir = _diskDir;
    }
    if (dir.empty())
        return;

    ByteWriter w;
    w.str(k);
    writeCompileResult(w, result);
    if (atomicWriteFile(entryPath(dir, k), frame(w.take()))) {
        std::lock_guard<std::mutex> lock(_mu);
        ++_stats.diskStores;
    }
}

std::shared_ptr<const sched::CompileResult>
CompileCache::compile(const std::string& source,
                      const config::MachineConfig& machine,
                      const sched::CompileOptions& opts, bool* was_hit)
{
    auto fresh = [&] {
        {
            std::lock_guard<std::mutex> lock(_mu);
            ++_stats.compiles;
        }
        return std::make_shared<const sched::CompileResult>(
            sched::compile(source, machine, opts));
    };

    if (was_hit)
        *was_hit = false;
    if (!_enabled) {
        {
            std::lock_guard<std::mutex> lock(_mu);
            ++_stats.misses;
        }
        return fresh();
    }

    const std::string k = key(source, machine, opts);
    std::promise<std::shared_ptr<const sched::CompileResult>> promise;
    Entry entry;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(_mu);
        auto it = _entries.find(k);
        if (it == _entries.end()) {
            owner = true;
            ++_stats.misses;
            entry = promise.get_future().share();
            _age.push_back(_entries.emplace(k, entry).first);
            if (_age.size() > kMaxEntries) {
                _entries.erase(_age.front());
                _age.pop_front();
            }
        } else {
            ++_stats.hits;
            if (was_hit)
                *was_hit = true;
            entry = it->second;
        }
    }
    if (owner) {
        try {
            // Disk tier first: a prior process (or a sibling worker)
            // may already have published this compilation.
            if (auto from_disk = diskLoad(k, machine)) {
                if (was_hit)
                    *was_hit = true;
                promise.set_value(std::move(from_disk));
            } else {
                auto result = fresh();
                diskStore(k, *result);
                promise.set_value(std::move(result));
            }
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return entry.get();  // rethrows the owner's CompileError, if any
}

CompileCache::Stats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _stats;
}

std::size_t
CompileCache::entries() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _entries.size();
}

} // namespace exp
} // namespace procoup
