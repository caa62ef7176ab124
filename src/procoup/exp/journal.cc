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
planFingerprint(const ExperimentPlan& plan,
                std::vector<std::string>* pointFps)
{
    std::vector<std::string> fps;
    fps.reserve(plan.size());
    std::string material = strCat("plan=", plan.name());
    for (const auto& p : plan.points()) {
        fps.push_back(pointFingerprint(p));
        material += '|';
        material += fps.back();
    }
    if (pointFps)
        *pointFps = std::move(fps);
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
    OutcomeRecord rec;  // validates; only its fingerprint is kept
    // Stop at the first bad frame: everything after a torn or corrupt
    // record is unreachable (frames are self-delimiting), and a
    // discarded point simply re-executes. So does a well-framed record
    // that does not decode.
    for (std::size_t start = 0; readFrame(bytes, offset, &payload);
         start = offset)
        if (decodeOutcomeRecord(payload, &rec))
            _records[rec.pointFingerprint] =
                bytes.substr(start, offset - start);
    // A file about to be appended to loses its torn tail first: records
    // appended after it would be unreachable on the next load.
    if (cut_torn_tail && offset < bytes.size())
        ::truncate(path.c_str(), static_cast<off_t>(offset));
}

bool
ResultsJournal::open(const std::string& dir, const ExperimentPlan& plan)
{
    ::mkdir(dir.c_str(), 0777);  // best effort; openability decides

    const std::string fp = planFingerprint(plan, &_fps);
    for (std::size_t i = 0; i < plan.size(); ++i)
        if (plan.points()[i].tracer)
            _fps[i].clear();  // never replayed or journaled
    _walPath = strCat(dir, "/", fp, ".wal");
    _journalPath = strCat(dir, "/", fp, ".journal");

    const std::size_t before = _records.size();
    loadFrom(_journalPath, /*cut_torn_tail=*/false);
    _loadedFromFinalized = _records.size() > before;
    const std::size_t afterJournal = _records.size();
    loadFrom(_walPath, /*cut_torn_tail=*/true);
    _loadedFromWal = _records.size() > afterJournal;

    _wal = std::fopen(_walPath.c_str(), "abe");  // e: O_CLOEXEC
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

std::string_view
ResultsJournal::replay(std::size_t i) const
{
    const std::string* framed =
        _wal && !_fps[i].empty() ? find(_fps[i]) : nullptr;
    return framed ? std::string_view(*framed).substr(kFrameHeaderSize)
                  : std::string_view();
}

void
ResultsJournal::commit(std::size_t i, const OutcomeRecord& rec,
                       std::string_view bytes)
{
    if (!_wal || _fps[i].empty())
        return;
    // A point that threw or failed verification must re-execute (and
    // re-fail) on resume; a fail-safe error record (failed) is data.
    if (rec.threw != 0 || (!rec.error.empty() && !rec.failed))
        return;
    if (bytes.empty())
        append(rec);
    else
        appendFramed(rec.pointFingerprint, frame(bytes));
}

const std::string*
ResultsJournal::find(const std::string& fingerprint) const
{
    const auto it = _records.find(fingerprint);
    return it == _records.end() ? nullptr : &it->second;
}

void
ResultsJournal::append(const OutcomeRecord& rec)
{
    if (_wal)
        appendFramed(rec.pointFingerprint, frame(encodeOutcomeRecord(rec)));
}

void
ResultsJournal::appendFramed(const std::string& fp, std::string framed)
{
    std::lock_guard<std::mutex> lock(_mu);
    // A single fwrite keeps the frame contiguous; the flush makes the
    // record durable against SIGKILL before the next point completes.
    std::fwrite(framed.data(), 1, framed.size(), _wal);
    std::fflush(_wal);
    _records[fp] = std::move(framed);
    _appended = true;
}

void
ResultsJournal::publishMerged()
{
    std::string merged;
    for (const auto& [fp, framed] : _records)
        merged += framed;
    if (atomicWriteFile(_journalPath, merged))
        std::remove(_walPath.c_str());
}

void
ResultsJournal::finalize()
{
    std::lock_guard<std::mutex> lock(_mu);
    if (!_wal)
        return;
    // A point with no record yet keeps the plan resumable, not done.
    for (const std::string& fp : _fps)
        if (!fp.empty() && _records.find(fp) == _records.end())
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
            publishMerged();
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
        publishMerged();
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
