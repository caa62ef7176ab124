#ifndef PROCOUP_EXP_DAEMON_HH
#define PROCOUP_EXP_DAEMON_HH

/**
 * @file
 * procoupd: a long-lived, fault-tolerant sweep service.
 *
 * The daemon listens on a Unix-domain socket for serialized
 * ExperimentPlans (exp/service.hh wire protocol) and executes each
 * one the way a local SweepRunner would — same executeSweepPoint
 * path, same plan order semantics — while streaming per-point
 * OutcomeRecord frames back to the client incrementally.
 *
 * Execution runs on the lease-based worker supervisor of exp/worker.hh
 * (the same one --isolate-workers uses): each pending point is leased
 * to a worker process, two leases in flight per worker, with a
 * deadline (--lease-ms) that the worker's heartbeats, one every
 * quarter of the lease, renew. A lease that expires — hung
 * worker, missed heartbeats — or breaks — dead worker — is reassigned
 * under the exp/backoff.hh RetryPolicy (--retries); after the bounded
 * reassignment budget the point becomes a structured
 * SimErrorKind::WorkerLost record instead of wedging the plan.
 *
 * The daemon builds its supervisor options, one WorkerPool and one
 * in-process CompileCache once: a worker spawned for one plan, and the
 * daemon's own cache, serve every later plan warm. Every worker is
 * reaped before serve() returns, on a shutdown frame, SIGTERM or
 * SIGINT; the workers of a SIGKILLed daemon exit on EOF.
 *
 * Durability: completed points are committed write-ahead to the
 * results journal (exp/journal.hh, whose rules SweepRunner --journal
 * shares) in the daemon's state directory before they are streamed,
 * so SIGKILLing the daemon and restarting it resumes a resubmitted
 * plan from the journal — no recompiles, no re-runs — and re-streams
 * every completed point (at-least-once delivery; clients dedup by
 * fingerprint). A client that disconnects mid-plan does not stop
 * execution: the plan finishes and journals, and the reconnected
 * client replays to the same bytes. A fresh record reaches the
 * journal and the client as the bytes its worker encoded, and a
 * replay streams the journaled bytes.
 *
 * Degradation: if a worker process cannot be spawned at all (fork or
 * pipe exhaustion), the affected supervisor threads execute their
 * points in-process, as --no-workers does, against the daemon's cache.
 */

#include <string>
#include <vector>

#include "procoup/exp/backoff.hh"
#include "procoup/exp/service.hh"

namespace procoup {
namespace exp {

class WorkerPool;
struct SupervisorOptions;

struct DaemonOptions
{
    /** Unix-domain socket to listen on (required). */
    std::string socketPath;

    /** Journal directory (default: "<socket>.state"). This is what
     *  makes daemon restarts resume instead of rerun. */
    std::string stateDir;

    /** Persistent compile cache shared with worker children. */
    std::string diskCacheDir;

    /** Worker pool size; 0 = hardware concurrency. */
    int jobs = 0;

    /** Attempts per point (--retries N gives N + 1) before a
     *  worker-lost record is emitted, and the backoff between lease
     *  reassignments. */
    RetryPolicy retryPolicy;

    /** Lease TTL: a point whose worker sends no frame for this long
     *  is reassigned; workers heartbeat every quarter of it. */
    double leaseMs = 30000.0;

    /** Execute in-process instead of spawning workers (also the
     *  automatic degradation path when spawning fails). */
    bool inProcess = false;
};

class SweepDaemon
{
  public:
    explicit SweepDaemon(DaemonOptions options);

    /** Accept-and-serve until a shutdown frame or SIGTERM/SIGINT,
     *  then reap every worker. @return exit code. */
    int serve();

  private:
    void servePlan(int fd, PlanEnvelope&& env, WorkerPool& pool,
                   CompileCache& cache, const SupervisorOptions& sopts);

    DaemonOptions _options;
};

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_DAEMON_HH
