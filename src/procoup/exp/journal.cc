#include "procoup/exp/journal.hh"

#include <sys/stat.h>
#include <unistd.h>

#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

std::string
pointFingerprint(const SweepPoint& point)
{
    const sim::SimOptions& so = point.simOptions;
    const std::string material = strCat(
        point.label, "|", point.machine.fingerprint(), "|mode=",
        static_cast<int>(point.mode), "|smode=",
        static_cast<int>(point.options.mode), "|clones=",
        point.options.forkClones, "|opt=", point.options.runOptimizer,
        "|verify=", point.verifyBenchmark, "|faults=",
        so.faults.enabled ? so.faults.toString() : "off", "|cap=",
        so.limits.maxCycles, "|ddl=", so.limits.wallClockDeadlineMs,
        "|san=", so.sanitizeEveryCycles, "|fmt=", kFormatVersion, "|",
        point.source);
    return fnv1a64Hex(material);
}

std::string
planFingerprint(const ExperimentPlan& plan)
{
    std::string material = strCat("plan=", plan.name());
    for (const auto& p : plan.points()) {
        material += '|';
        material += pointFingerprint(p);
    }
    return fnv1a64Hex(material);
}

ResultsJournal::~ResultsJournal()
{
    if (_wal)
        std::fclose(_wal);
}

void
ResultsJournal::loadFrom(const std::string& path, bool cut_torn_tail)
{
    std::string bytes;
    if (!readWholeFile(path, &bytes))
        return;
    std::size_t offset = 0;
    std::string payload;
    // Stop at the first bad frame: everything after a torn or corrupt
    // record is unreachable (frames are self-delimiting), and a
    // discarded point simply re-executes.
    while (readFrame(bytes, offset, &payload)) {
        OutcomeRecord rec;
        if (decodeOutcomeRecord(payload, &rec))
            _records[rec.pointFingerprint] = std::move(rec);
    }
    // A file about to be appended to loses its torn tail first: records
    // appended after it would be unreachable on the next load.
    if (cut_torn_tail && offset < bytes.size())
        ::truncate(path.c_str(), static_cast<off_t>(offset));
}

bool
ResultsJournal::open(const std::string& dir, const ExperimentPlan& plan)
{
    ::mkdir(dir.c_str(), 0777);  // best effort; openability decides

    const std::string fp = planFingerprint(plan);
    _walPath = strCat(dir, "/", fp, ".wal");
    _journalPath = strCat(dir, "/", fp, ".journal");

    const std::size_t before = _records.size();
    loadFrom(_journalPath, /*cut_torn_tail=*/false);
    _loadedFromFinalized = _records.size() > before;
    const std::size_t afterJournal = _records.size();
    loadFrom(_walPath, /*cut_torn_tail=*/true);
    _loadedFromWal = _records.size() > afterJournal;

    _wal = std::fopen(_walPath.c_str(), "ab");
    if (!_wal) {
        _records.clear();
        return false;
    }

    // A human-readable sidecar so a journal directory is inspectable
    // without the binary decoder (also validated by
    // scripts/check_stats_schema.py --journal-dir).
    const std::string meta = strCat(
        "{\"schema\": \"procoup-journal/1\", \"plan\": ",
        jsonQuote(plan.name()), ", \"fingerprint\": ", jsonQuote(fp),
        ", \"points\": ", plan.size(), "}\n");
    const std::string metaPath = strCat(dir, "/", fp, ".meta.json");
    std::string existing;
    if (!readWholeFile(metaPath, &existing) || existing != meta)
        atomicWriteFile(metaPath, meta);
    return true;
}

const OutcomeRecord*
ResultsJournal::find(const std::string& fingerprint) const
{
    const auto it = _records.find(fingerprint);
    return it == _records.end() ? nullptr : &it->second;
}

void
ResultsJournal::append(const OutcomeRecord& rec)
{
    if (!_wal)
        return;
    const std::string framed = frame(encodeOutcomeRecord(rec));
    std::lock_guard<std::mutex> lock(_mu);
    // A single fwrite keeps the frame contiguous; the flush makes the
    // record durable against SIGKILL before the next point completes.
    std::fwrite(framed.data(), 1, framed.size(), _wal);
    std::fflush(_wal);
    _records[rec.pointFingerprint] = rec;
    _appended = true;
}

void
ResultsJournal::finalize()
{
    std::lock_guard<std::mutex> lock(_mu);
    if (!_wal)
        return;
    std::fclose(_wal);
    _wal = nullptr;

    if (!_appended) {
        if (_loadedFromWal) {
            // Every record came back without executing anything, but
            // some live only in the WAL — e.g. a graceful SIGTERM
            // drain journaled the whole plan and exited before
            // finalizing. Publish the union before dropping the WAL:
            // removing it here would delete the only copy.
            std::string merged;
            for (const auto& [fp, rec] : _records)
                merged += frame(encodeOutcomeRecord(rec));
            if (atomicWriteFile(_journalPath, merged))
                std::remove(_walPath.c_str());
        } else {
            // Fully replayed from a finalized journal: nothing new to
            // publish; just drop the empty WAL opened for appending.
            std::remove(_walPath.c_str());
        }
        return;
    }
    if (_loadedFromFinalized) {
        // Resume appended past an already-finalized journal: publish
        // the merged record set, then drop the WAL. Crash windows are
        // safe — both files survive until the rename lands, and the
        // loader unions them.
        std::string merged;
        for (const auto& [fp, rec] : _records)
            merged += frame(encodeOutcomeRecord(rec));
        if (atomicWriteFile(_journalPath, merged))
            std::remove(_walPath.c_str());
    } else {
        std::rename(_walPath.c_str(), _journalPath.c_str());
    }
}

void
ResultsJournal::close()
{
    std::lock_guard<std::mutex> lock(_mu);
    if (!_wal)
        return;
    std::fflush(_wal);
    std::fclose(_wal);
    _wal = nullptr;
}

} // namespace exp
} // namespace procoup
