#ifndef PROCOUP_EXP_WORKER_HH
#define PROCOUP_EXP_WORKER_HH

/**
 * @file
 * Supervised worker processes: the one execution path behind both
 * --isolate-workers (exp/runner.hh) and the procoupd sweep daemon
 * (exp/daemon.hh).
 *
 * A worker is the running binary re-executed as `<binary> --worker`.
 * It holds no plan, only a compile cache (bounded, exp/cache.hh) that
 * lives as long as the worker, and serves leases over two inherited
 * pipes with kind-tagged frames (exp/service.hh) —
 *
 *     fd 3 (supervisor -> worker): point-lease — one serialized point,
 *                                  its fingerprint, and the knobs that
 *                                  change its result
 *     fd 4 (worker -> supervisor): one ready heartbeat at start; per
 *                                  lease, heartbeat frames while the
 *                                  point executes, then one
 *                                  point-result carrying its
 *                                  OutcomeRecord
 *
 * — until the supervisor hangs up. The worker runs its leases in
 * order through the same executeSweepPoint() path as in-process
 * execution and ships bit-exact RunStats/memory back, so healthy
 * points are byte-identical. One heartbeat thread per worker process,
 * started by the first lease that asks for heartbeats, beats every
 * cadence while a point executes; a mutex keeps its frames out of the
 * result frames.
 *
 * Workers live in a WorkerPool that outlives a superviseWorkers()
 * call: procoupd keeps one for its lifetime, so a worker and its warm
 * cache serve plan after plan; --isolate-workers makes one per run. A
 * slot spawns its worker on first need. A worker that died while its
 * pool was idle is reaped when the next call starts and replaced
 * without charging any point; one lost during a call is charged as
 * below.
 *
 * Each supervising thread keeps two leases written to its worker, the
 * head and one queued behind it, while more points wait unclaimed
 * than there are supervising threads (after that, one, so a plan of
 * few points spreads over every worker), and drives them through one
 * lease state machine:
 *
 *     issue leases ── head's point-result ──> pop head, issue the
 *          ^     │                            next lease, commit head
 *          │     ├─ heartbeat: head's deadline renewed
 *          │     ├─ deadline passes: worker killed (lease expired)
 *          │     └─ worker EOF / crash / garbage: worker reaped
 *          │                 │ (head charged one attempt)
 *          └── respawn, reissue all (RetryPolicy backoff, bounded)
 *                            │
 *                            └─ head's budget exhausted -> structured
 *                               error record; the rest are reissued
 *
 * The head's deadline starts when its predecessor's result arrives,
 * or on a fresh worker when the worker's first frame, a heartbeat,
 * reports it ready (it has the lease or 10 s, whichever is longer, to
 * start); each heartbeat renews it. A lease whose worker sends no
 * periodic heartbeats (heartbeatMs = 0) is thus a hard per-point
 * budget that excludes start-up — that is --worker-timeout-ms. A
 * lost worker was executing the head, so only the head is charged:
 * the queued leases are reissued to the next worker without a charge
 * and count as issued, not reassigned. An exhausted point becomes
 * worker-timeout (last attempt expired) or worker-crash (anything
 * else); the daemon reports every exhausted lease as worker-lost
 * instead. If a worker cannot be spawned, the head runs in-process
 * against the supervisor's compile cache, with identical results.
 *
 * A lease carries its point's fingerprint, which the caller's journal
 * computed, and the supervisor checks it on the result. The worker's
 * record bytes reach the caller unchanged; the supervisor encodes
 * only a record it builds or changes.
 *
 * Every binary that supervises workers must call runWorkerIfRequested
 * first thing in main() (harnessMain, pcsim and procoupd do).
 */

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "procoup/exp/backoff.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"

namespace procoup {
namespace exp {

/** Write all of @p len bytes to @p fd; false on any error (EPIPE on a
 *  dead peer included — callers ignore SIGPIPE). */
bool writeAllFd(int fd, const void* data, std::size_t len);

enum class FrameRead
{
    Ok,
    Timeout,
    Closed  ///< EOF, read error, or a corrupt frame — a dead peer
};

/** Read exactly one PCFR frame from @p fd within @p timeoutMs
 *  (negative: no deadline). */
FrameRead readFrameFromFd(int fd, double timeoutMs,
                          std::string* payload);

/** The hidden worker entry: if argv[1] is "--worker", serve leases on
 *  fds 3/4 until the supervisor hangs up and exit; otherwise return. */
void runWorkerIfRequested(int argc, char** argv);

struct SupervisorOptions
{
    /** Worker processes (and supervising threads). */
    int workers = 1;

    /** Attempts per point and the backoff between them. */
    RetryPolicy retryPolicy;

    /** Silence after which a lease expires and its worker is killed. */
    double leaseMs = 120000.0;

    /** Heartbeat cadence workers run with; each heartbeat renews the
     *  lease. 0 = no heartbeats: leaseMs is a hard per-point budget. */
    double heartbeatMs = 0.0;

    /** Never spawn: execute every point in-process. */
    bool inProcess = false;

    /** Exhausted points become worker-lost rather than the last
     *  attempt's worker-crash / worker-timeout. */
    bool reportLost = false;
};

/** One worker process and its pipes (exp/worker.cc). */
struct WorkerProcess;

/** The workers of superviseWorkers() calls, one call at a time: slot i
 *  serves supervising thread i. Destruction kills and reaps them. */
class WorkerPool
{
  public:
    WorkerPool();
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /** Reap every worker that died since the last call, so that its
     *  slot respawns uncharged, and hold at least @p slots slots. */
    void prepare(std::size_t slots);

    WorkerProcess& slot(std::size_t i) { return *_slots[i]; }

  private:
    std::vector<std::unique_ptr<WorkerProcess>> _slots;
};

/** Receives a finished point: its plan index, its record, and the
 *  record's encoding (encodeOutcomeRecord). */
using RecordSink =
    std::function<void(std::size_t, OutcomeRecord&&, std::string_view)>;

/**
 * Execute the points @p indices of @p plan under @p opts.workers
 * supervised workers of @p pool. @p fps holds every point's journal
 * fingerprint in plan order; if it is empty, each claimed point's is
 * computed. @p commit runs once per index (from supervising threads,
 * distinct indices) with the finished record; records whose threw
 * class is set carry an exception for the caller to rethrow. Claimed
 * points (up to two per worker) finish; points not yet claimed when
 * sweepStopRequested() turns true are skipped. @p ropts carries the
 * knobs shipped with every lease; @p cache serves in-process
 * execution. @return the lease accounting (the lease, heartbeat and
 * workerLost counters of DaemonStats).
 */
DaemonStats
superviseWorkers(WorkerPool& pool, const ExperimentPlan& plan,
                 const std::vector<std::size_t>& indices,
                 const std::vector<std::string>& fps,
                 const RunnerOptions& ropts, CompileCache& cache,
                 const SupervisorOptions& opts, const RecordSink& commit);

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_WORKER_HH
