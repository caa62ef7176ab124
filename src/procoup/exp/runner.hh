#ifndef PROCOUP_EXP_RUNNER_HH
#define PROCOUP_EXP_RUNNER_HH

/**
 * @file
 * Parallel, compile-cached, crash-safe execution of an ExperimentPlan.
 *
 * The SweepRunner executes every point of a plan on a pool of
 * std::thread workers (--jobs N; jobs=1 runs everything inline on the
 * calling thread, preserving the legacy serial behavior exactly).
 * Each point is independent work — compile via the shared
 * CompileCache, simulate on a private Simulator, verify against the
 * C++ reference — so the pool partitions over points and a
 * deterministic reduction collects outcomes.
 *
 * Determinism contract: outcomes are returned in plan order, each
 * point's simulation owns all of its mutable state (including its RNG
 * stream, see support/rng.hh), and the compile cache memoizes a pure
 * function. Stats, rendered tables, --stats-json bundles, and
 * verification output are therefore byte-identical at any job count;
 * tests/sweep_determinism_test.cc enforces this.
 *
 * Verification failures do not abort mid-sweep from a worker thread:
 * they are collected and reported on stderr in plan order after the
 * pool drains, and the process exits 1 (the same observable contract
 * the serial harnesses had).
 *
 * Durability (journalDir): each completed point is appended to a
 * write-ahead results journal (exp/journal.hh) before the sweep moves
 * on; re-running an interrupted sweep replays the recorded points
 * bit-identically — no recompile, no re-simulation — and executes
 * only the remainder. Verify-failed points are deliberately not
 * journaled: they re-execute on resume so the failure reproduces.
 *
 * Isolation (isolateWorkers): pending points run under the worker
 * supervisor of exp/worker.hh — the sweep daemon's lease state machine,
 * called in-process — where a crashed or hung child becomes a
 * structured error record (worker-crash / worker-timeout) after
 * bounded, jittered retries instead of taking the sweep down with it.
 */

#include <exception>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "procoup/core/node.hh"
#include "procoup/exp/backoff.hh"
#include "procoup/exp/cache.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/serialize.hh"
#include "procoup/support/error.hh"

namespace procoup {
namespace exp {

struct RunnerOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    int jobs = 0;

    /** Share an external compile cache (e.g. across a harness's
     *  plans, or pcsim's dump path); nullptr = runner-owned cache. */
    CompileCache* cache = nullptr;

    /** Turn compile caching off (legacy-equivalent measurement). */
    bool cacheEnabled = true;

    /** Abort the process on a verification failure (default), or
     *  leave the failure in RunOutcome::error for the caller. */
    bool exitOnVerifyFailure = true;

    /**
     * Fail-safe execution: a point whose *simulation* throws SimError
     * (deadlock, exhausted budget, sanitizer violation, runtime
     * misbehavior) becomes a structured error record in its RunOutcome
     * instead of killing the sweep after the pool drains. Compile
     * errors still propagate — a malformed plan is a caller bug, not a
     * run hazard. Off by default: ad-hoc callers keep exception
     * semantics.
     */
    bool failSafe = false;

    /** Under failSafe: retry a failed point under reseeded fault
     *  plans, bounded and backed off by retryPolicy, before recording
     *  the failure (points without a fault plan are never retried —
     *  their failures are deterministic). */
    bool retryFaulted = false;

    /** Backoff shared by --retry-faulted and worker respawns. */
    RetryPolicy retryPolicy;

    /** Write-ahead results journal directory ("" = no journal). */
    std::string journalDir;

    /** Persistent compile cache directory ("" = in-memory only). */
    std::string diskCacheDir;

    /** Run points in supervised worker processes: this binary
     *  re-executed as a worker (see runWorkerIfRequested in
     *  exp/worker.hh, which its main() must call). */
    bool isolateWorkers = false;

    /** Per-point wall-clock budget under isolateWorkers; a child
     *  exceeding it is killed and the point retried per retryPolicy. */
    double workerTimeoutMs = 120000.0;
};

/** What one executed sweep point produced. */
struct RunOutcome
{
    const SweepPoint* point = nullptr;  ///< owned by the caller's plan
    core::RunResult result;

    /** Non-empty if verification failed (only seen by callers that
     *  set exitOnVerifyFailure = false), or — with failed below — the
     *  diagnostic dump of a fail-safe-captured simulation error. */
    std::string error;

    /** The simulation threw SimError and failSafe captured it; result
     *  is empty and errorKind/errorCycle/error describe the failure.
     *  Worker crashes and timeouts land here too (WorkerCrash /
     *  WorkerTimeout kinds), independent of failSafe — isolation
     *  exists precisely to turn a dead process into data. */
    bool failed = false;
    SimErrorKind errorKind = SimErrorKind::Runtime;
    std::uint64_t errorCycle = 0;

    /** Attempts beyond the first: reseeded-fault-plan retries, plus
     *  worker respawns the supervisor spent on this point. */
    int retries = 0;

    /** This point's compile was served from a cache tier. */
    bool compileCached = false;

    /** Restored from the results journal; nothing re-executed. */
    bool replayed = false;

    /** Wall-clock this point took (compile + simulate + verify). */
    double wallMs = 0.0;
};

/**
 * Lease/heartbeat accounting of a daemon-executed sweep (exp/daemon.hh
 * fills it server-side; the --connect client receives it in the
 * plan-done frame and surfaces it as the sweep report's "daemon"
 * block). active stays false for local execution so existing reports
 * are byte-identical.
 */
struct DaemonStats
{
    bool active = false;
    std::uint32_t jobs = 0;            ///< daemon worker-pool size
    std::uint64_t leasesIssued = 0;    ///< point assignments handed out
    std::uint64_t leasesExpired = 0;   ///< deadlines missed (no heartbeat)
    std::uint64_t leasesReassigned = 0;///< retries after a lost lease
    std::uint64_t heartbeats = 0;      ///< worker heartbeats received
    std::uint64_t workerLost = 0;      ///< points that became worker-lost
    std::uint64_t resultsStreamed = 0; ///< point-result frames sent
    std::uint64_t replayed = 0;        ///< points served from the journal
    std::uint64_t executed = 0;        ///< points freshly executed
    std::uint64_t reconnects = 0;      ///< client-side reconnect count
    std::uint64_t cacheHits = 0;       ///< daemon-side compile cache
    std::uint64_t cacheMisses = 0;
    std::uint64_t compiles = 0;        ///< actual daemon-side compiles
};

/** All outcomes of one plan execution, in plan order. */
struct SweepResult
{
    std::vector<RunOutcome> outcomes;
    CompileCache::Stats cacheStats;
    double wallMs = 0.0;  ///< whole-sweep wall-clock
    int jobs = 1;         ///< resolved worker count

    /** Daemon-mode accounting (active only under --connect). */
    DaemonStats daemon;

    /** Points restored from the journal instead of executed. */
    std::size_t replayedPoints = 0;

    /** Outcome of the point labeled @p label. @throws if absent */
    const RunOutcome& at(const std::string& label) const;

    /** Points whose simulation failed (fail-safe mode only). */
    std::size_t failedCount() const;
};

/**
 * Execute one point exactly as SweepRunner does: compile via
 * @p cache, simulate, verify, fail-safe capture with bounded
 * reseeded-fault retries. Exposed so worker children (exp/worker.hh)
 * run the identical path — byte-identical outcomes are the contract.
 */
RunOutcome executeSweepPoint(const SweepPoint& point, CompileCache& cache,
                             const RunnerOptions& options);

/**
 * True while a journaled sweep is draining after SIGINT/SIGTERM: the
 * in-process pool and the worker supervisor stop claiming new points,
 * in-flight points finish and are journaled, and SweepRunner::run
 * closes the write-ahead log cleanly before exiting 128+signal. Always
 * false for unjournaled sweeps (their signal disposition is untouched).
 */
bool sweepStopRequested();

/** Persistable snapshot of @p outcome (journal & worker protocol). */
OutcomeRecord makeOutcomeRecord(const RunOutcome& outcome,
                                const std::string& fingerprint);

/** executeSweepPoint as a record: an exception it raises is captured
 *  in the record's threw class instead of propagating (what a worker
 *  ships back, and what supervised in-process execution produces). */
OutcomeRecord executePointToRecord(const SweepPoint& point,
                                   const std::string& fingerprint,
                                   CompileCache& cache,
                                   const RunnerOptions& options);

/** The exception @p rec's threw class captured, recreated so plan-order
 *  rethrow semantics survive a process boundary; nullptr if none. */
std::exception_ptr recordException(const OutcomeRecord& rec);

/** Rehydrate an outcome for @p point from @p rec. Restores stats,
 *  memory, symbols, and schedule metadata — everything the render,
 *  report, and analysis paths read — but not the instruction stream. */
RunOutcome makeRunOutcome(const OutcomeRecord& rec,
                          const SweepPoint* point);

class SweepRunner
{
  public:
    explicit SweepRunner(RunnerOptions options = {});

    /** Execute every point of @p plan; outcomes in plan order. The
     *  plan must outlive the returned result (outcomes point into
     *  it). Worker exceptions (e.g. CompileError) are rethrown on the
     *  calling thread, first failing point in plan order. */
    SweepResult run(const ExperimentPlan& plan);

    CompileCache& cache() { return *_cache; }

    /** The worker count @p requested resolves to (0 -> hardware). */
    static int resolveJobs(int requested);

  private:
    RunnerOptions _options;
    std::unique_ptr<CompileCache> _ownedCache;
    CompileCache* _cache;
};

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_RUNNER_HH
