#ifndef PROCOUP_EXP_WORKER_HH
#define PROCOUP_EXP_WORKER_HH

/**
 * @file
 * Supervised worker processes: the one execution path behind both
 * --isolate-workers (exp/runner.hh) and the procoupd sweep daemon
 * (exp/daemon.hh).
 *
 * A worker is the running binary re-executed as `<binary> --worker`.
 * It is stateless: it holds no plan, only a compile cache, and serves
 * leases over two inherited pipes with kind-tagged frames
 * (exp/service.hh) —
 *
 *     fd 3 (supervisor -> worker): point-lease — one serialized point
 *                                  plus the knobs that change its result
 *     fd 4 (worker -> supervisor): heartbeat frames while the point
 *                                  executes, then one point-result
 *                                  carrying its OutcomeRecord
 *
 * — until the supervisor hangs up. The worker runs the same
 * executeSweepPoint() path as in-process execution and ships bit-exact
 * RunStats/memory back, so healthy points are byte-identical.
 *
 * The supervisor drives every point through one lease state machine:
 *
 *     issue lease ── point-result ──> commit
 *          ^     │
 *          │     ├─ heartbeat: deadline renewed
 *          │     ├─ deadline passes: worker killed (lease expired)
 *          │     └─ worker EOF / crash / garbage: worker reaped
 *          └── reissue (RetryPolicy backoff, bounded) ──┘
 *                    │
 *                    └─ budget exhausted -> structured error record
 *
 * A lease whose worker runs without heartbeats (heartbeatMs = 0) is a
 * hard per-point budget — that is --worker-timeout-ms. An exhausted
 * point becomes worker-timeout (last attempt expired) or worker-crash
 * (anything else); the daemon reports every exhausted lease as
 * worker-lost instead. If a worker cannot be spawned, the point runs
 * in-process against the supervisor's compile cache, with identical
 * results.
 *
 * Every binary that supervises workers must call runWorkerIfRequested
 * first thing in main() (harnessMain, pcsim and procoupd do).
 */

#include <functional>
#include <string>
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

/**
 * Execute the points @p indices of @p plan under @p opts.workers
 * supervised workers. @p commit runs once per index (from supervising
 * threads, distinct indices) with the finished record; records whose
 * threw class is set carry an exception for the caller to rethrow.
 * Points not yet claimed when sweepStopRequested() turns true are
 * skipped. @p ropts carries the knobs shipped with every lease;
 * @p cache serves in-process execution. @return the lease accounting
 * (the lease, heartbeat and workerLost counters of DaemonStats).
 */
DaemonStats
superviseWorkers(const ExperimentPlan& plan,
                 const std::vector<std::size_t>& indices,
                 const RunnerOptions& ropts, CompileCache& cache,
                 const SupervisorOptions& opts,
                 const std::function<void(std::size_t, OutcomeRecord&&)>&
                     commit);

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_WORKER_HH
