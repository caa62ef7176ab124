#ifndef PROCOUP_EXP_SERVICE_HH
#define PROCOUP_EXP_SERVICE_HH

/**
 * @file
 * Wire protocol of the sweep daemon (exp/daemon.hh, tools/procoupd).
 *
 * The daemon speaks the PCFR framed-record format of exp/serialize.hh
 * over a Unix-domain stream socket. Every daemon-protocol frame's
 * payload starts with a one-byte FrameKind tag followed by the kind's
 * body; the journal and the compile cache keep untagged frames. The
 * body codecs declared here are defined in exp/serialize.cc, which
 * holds every byte layout.
 *
 *     client -> daemon:      plan-submit, shutdown
 *     daemon -> client:      point-result, heartbeat, plan-done,
 *                            service-error
 *     supervisor -> worker:  point-lease (fd 3 pipe, exp/worker.hh)
 *     worker -> supervisor:  heartbeat, point-result (fd 4 pipe)
 *
 * A plan-submit body carries the complete serialized ExperimentPlan
 * (machine configurations, sources, fault plans, budgets) plus the
 * execution knobs a local SweepRunner would read from its flags, so
 * the daemon executes the *identical* plan a local run would and the
 * streamed results are byte-identical. Points carrying a trace sink
 * cannot be serialized and are rejected at encode time.
 *
 * A point-lease carries one point, not a plan: the point, the
 * fingerprint its journal computed, and the knobs (the plan-submit's
 * result knobs, the disk cache, the heartbeat cadence). A worker's
 * point-result record reaches the client in the daemon's point-result
 * frame as the same bytes, and a journal replay sends the journaled
 * bytes.
 *
 * Delivery is at-least-once: after a reconnect the daemon re-streams
 * every completed point (journal replay), and the client deduplicates
 * by point fingerprint, so interrupted sessions converge to the same
 * bytes as an uninterrupted one.
 */

#include <cstdint>
#include <string>

#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"

namespace procoup {
namespace exp {

/** First payload byte of every daemon-protocol frame. */
enum class FrameKind : std::uint8_t
{
    PlanSubmit = 1,    ///< client submits a serialized plan
    PointLease = 2,    ///< supervisor hands a worker one point
    PointResult = 3,   ///< one OutcomeRecord, streamed incrementally
    Heartbeat = 4,     ///< worker/daemon liveness (renews leases)
                       // 5 stays unassigned: older clients ack with it
    Shutdown = 6,      ///< client asks the daemon to exit
    PlanDone = 7,      ///< daemon finished a plan (DaemonStats body)
    ServiceError = 8,  ///< daemon rejected the submission
};

/** Stable schema/display name, e.g. "plan-submit". */
std::string frameKindName(FrameKind k);

/** True iff @p tag is a known FrameKind value. */
bool frameKindValid(std::uint8_t tag);

/** Wrap @p body in a checksummed frame tagged with @p kind. */
std::string kindFrame(FrameKind kind, const std::string& body);

/** Split a kind-tagged frame payload into tag + body; false on an
 *  empty or unknown-kind payload. */
bool splitKindPayload(const std::string& payload, FrameKind* kind,
                      std::string* body);

// ---- Plan serialization ------------------------------------------------

/** A decoded plan-submit: the plan plus the execution knobs shipped
 *  with it — everything a local SweepRunner reads from RunnerOptions
 *  that changes *results* (cacheEnabled, failSafe, retryFaulted,
 *  retryPolicy.maxAttempts), so remote execution is byte-identical to
 *  local. Every other option keeps its default, except that
 *  verification failures are left to the submitting side. */
struct PlanEnvelope
{
    ExperimentPlan plan{""};
    RunnerOptions options;
};

/** Encode @p plan + knobs from @p options as a plan-submit body.
 *  @throws CompileError if any point carries a trace sink. */
std::string encodePlanSubmit(const ExperimentPlan& plan,
                             const RunnerOptions& options);

/** Decode a plan-submit body; false on malformed bytes or a plan
 *  that violates its own invariants (an empty or repeated label, or a
 *  machine config::validateMachine rejects). */
bool decodePlanSubmit(const std::string& body, PlanEnvelope* env);

// ---- Frame bodies ------------------------------------------------------

/** A decoded point-lease: one point, the fingerprint its record must
 *  carry, and the knobs it runs under (a PlanEnvelope's, plus the
 *  disk cache it compiles through and the heartbeat cadence). */
struct LeasedPoint
{
    SweepPoint point;
    std::string fingerprint;
    RunnerOptions options;
    double heartbeatMs = 0.0;
};

/** point-lease body: @p point, its @p fingerprint, the result knobs
 *  and diskCacheDir of @p options, and the worker's heartbeat cadence
 *  (0: none). */
std::string encodePointLease(const SweepPoint& point,
                             const std::string& fingerprint,
                             const RunnerOptions& options,
                             double heartbeatMs);

/** Decode a point-lease; false on malformed bytes, an empty label, or
 *  a machine config::validateMachine rejects. */
bool decodePointLease(const std::string& body, LeasedPoint* lease);

/** point-result body: plan index + the embedded OutcomeRecord. */
std::string encodePointResult(std::uint64_t planIndex,
                              std::string_view recordPayload);
bool decodePointResult(const std::string& body, std::uint64_t* planIndex,
                       std::string* recordPayload);

std::string encodeDaemonStats(const DaemonStats& s);
bool decodeDaemonStats(const std::string& body, DaemonStats* s);

// ---- Socket plumbing ---------------------------------------------------

/** Bind + listen on a Unix-domain socket at @p path (unlinking any
 *  stale file first); -1 on error. */
int listenUnixSocket(const std::string& path, int backlog);

/** Connect to @p path; -1 on error (e.g. no daemon yet). */
int connectUnixSocket(const std::string& path);

// ---- Client ------------------------------------------------------------

struct ClientOptions
{
    std::string socketPath;

    /** Total budget for connecting, reconnecting after daemon
     *  restarts, and waiting behind other clients' plans. */
    double totalTimeoutMs = 600000.0;

    /** Longest tolerated gap between daemon frames before the client
     *  declares the connection dead and reconnects (the daemon
     *  heartbeats about once a second while executing). */
    double frameTimeoutMs = 30000.0;

    /** As RunnerOptions::exitOnVerifyFailure: the shared end of a
     *  plan (finishPlanRun) prints FATAL and exits 1. */
    bool exitOnVerifyFailure = true;
};

/**
 * Execute @p plan on the daemon at @p copts.socketPath and return the
 * outcomes exactly as a local SweepRunner::run would: plan order,
 * byte-identical stats, worker exceptions rethrown in plan order,
 * verification failures fatal. @p ropts supplies the execution knobs
 * shipped in the envelope. Reconnects (with the submission replayed
 * and results deduplicated by fingerprint) until the plan completes
 * or the budget runs out; @throws SimError/CompileError re-raised
 * from the daemon, or std::runtime_error when the daemon stays
 * unreachable.
 */
SweepResult runPlanOverSocket(const ExperimentPlan& plan,
                              const RunnerOptions& ropts,
                              const ClientOptions& copts);

/** Send a shutdown frame to the daemon at @p socketPath; true if the
 *  daemon acknowledged by closing the connection. */
bool requestDaemonShutdown(const std::string& socketPath);

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_SERVICE_HH
