#ifndef PROCOUP_EXP_JOURNAL_HH
#define PROCOUP_EXP_JOURNAL_HH

/**
 * @file
 * Write-ahead results journal: durable sweep execution.
 *
 * A journaled sweep appends one checksummed, self-delimiting frame
 * (exp/serialize.hh) per *completed* point to
 *
 *     <dir>/<plan-fingerprint>.wal
 *
 * flushing after every append. Killing the process at any instant
 * loses at most the record being appended: the torn tail fails its
 * length/checksum check on the next open and is cut off before new
 * records are appended, exactly the crash-consistency discipline of a
 * write-ahead log. When every
 * journalable point of the plan has a record, finalize() publishes
 * the file as <plan-fingerprint>.journal via atomic rename (merging
 * an existing finalized journal when a resumed plan appended more).
 *
 * Rerunning the same sweep with the same --journal directory replays
 * every recorded point bit-identically — stats, memory, symbol table,
 * error records — and executes only the remainder. Matching is by
 * point fingerprint (label, machine fingerprint, source, compile
 * options, fault plan, budgets, sanitizer cadence), so editing any
 * input of a point silently invalidates only that point's record.
 *
 * The journal owns the rules SweepRunner and procoupd share: which
 * points replay, which fresh records it keeps, and when it publishes.
 * A point with a trace sink is never journaled or replayed (a replay
 * cannot reproduce tracing); one that threw or failed verification
 * re-executes on resume.
 *
 * It keeps each record as the bytes of its frame, never a decoded
 * copy: open() decodes a loaded record only to validate it, commit()
 * writes the encoding its caller already holds (a worker's, as the
 * worker sent it), a replay hands out the kept bytes for a daemon to
 * stream as they are, and publishing a merge concatenates them.
 */

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "procoup/exp/plan.hh"
#include "procoup/exp/serialize.hh"

namespace procoup {
namespace exp {

/** The identity a journal record must match to be replayed for a
 *  point: every input that can change its outcome. */
std::string pointFingerprint(const SweepPoint& point);

/** The identity of a whole plan (keys the journal file name): the
 *  plan name plus every point fingerprint, in order, which are also
 *  stored to @p pointFps if given. */
std::string planFingerprint(const ExperimentPlan& plan,
                            std::vector<std::string>* pointFps = nullptr);

class ResultsJournal
{
  public:
    ~ResultsJournal();

    ResultsJournal() = default;
    ResultsJournal(const ResultsJournal&) = delete;
    ResultsJournal& operator=(const ResultsJournal&) = delete;

    /**
     * Bind to @p dir (created if missing), fingerprint every point of
     * @p plan once, and load every valid record for @p plan from the
     * finalized journal and/or the write-ahead file. Returns false
     * (journal disabled, never fatal) if the directory cannot be
     * created or the WAL cannot be opened for appending — a sweep must
     * still run when its journal medium is broken.
     */
    bool open(const std::string& dir, const ExperimentPlan& plan);

    bool isOpen() const { return _wal != nullptr; }

    /** The encoded record (decodeOutcomeRecord reads it) point @p i of
     *  the opened plan replays, or "": nothing is recorded for it, the
     *  journal is not open, or the point has a trace sink. */
    std::string_view replay(std::size_t i) const;

    /** Journal point @p i's fresh record (thread-safe) unless it holds
     *  a captured exception (threw != 0) or a verification failure
     *  (error set, failed not), or the point has a trace sink. Returns
     *  at once when the journal is not open. @p bytes is the record's
     *  encoding (encodeOutcomeRecord), written as it is, or "" to have
     *  it encoded here. */
    void commit(std::size_t i, const OutcomeRecord& rec,
                std::string_view bytes = {});

    /** Every point's fingerprint from open(), in plan order ("" for a
     *  point with a trace sink); empty before open(). */
    const std::vector<std::string>& fingerprints() const { return _fps; }

    /** The framed record held for @p fingerprint, or nullptr. */
    const std::string* find(const std::string& fingerprint) const;

    /** Records held: those loaded at open() and those appended since. */
    std::size_t loadedCount() const { return _records.size(); }

    /** Append + flush one completed point (thread-safe). */
    void append(const OutcomeRecord& rec);

    /**
     * Publish the WAL as the finalized journal via atomic rename once
     * every point without a trace sink holds a record; until then, and
     * after a crash before finalize, the WAL stays to resume from.
     */
    void finalize();

    /** Flush and close the WAL without finalizing: the clean,
     *  resumable shutdown path (SIGTERM/SIGINT drain exits via
     *  std::exit, which skips destructors). Idempotent. */
    void close();

    /** Paths (exposed for tests and tooling). */
    const std::string& walPath() const { return _walPath; }
    const std::string& journalPath() const { return _journalPath; }

  private:
    void loadFrom(const std::string& path, bool cut_torn_tail);

    /** Write @p framed (the frame of the record for @p fp) to the WAL,
     *  flush it, and keep it. */
    void appendFramed(const std::string& fp, std::string framed);

    /** Publish every kept record as the journal, then drop the WAL. */
    void publishMerged();

    std::map<std::string, std::string> _records;  ///< fingerprint -> frame
    std::vector<std::string> _fps;  ///< per point; "" if it has a tracer
    std::string _walPath;
    std::string _journalPath;
    std::FILE* _wal = nullptr;
    bool _loadedFromFinalized = false;
    bool _loadedFromWal = false;
    bool _appended = false;
    std::mutex _mu;
};

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_JOURNAL_HH
