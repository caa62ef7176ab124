/**
 * @file
 * procoupd — the long-lived sweep daemon (exp/daemon.hh).
 *
 * Usage (a valued flag also as --flag=X):
 *   procoupd --socket PATH [--state DIR] [--jobs N] [--retries N]
 *            [--lease-ms N] [--disk-cache DIR] [--no-workers]
 *   procoupd --socket PATH --stop        ask a running daemon to exit
 *
 * Clients submit plans with `<harness> --connect PATH` (any runner
 * harness or pcsim). Results stream back per point and are journaled
 * write-ahead in the state directory, so killing the daemon mid-sweep
 * and restarting it resumes resubmitted plans without recompiling or
 * re-running completed points. --lease-ms (positive) is how long a
 * worker may stay silent before its point is reassigned; workers
 * heartbeat every quarter of it. --stop reports "stopped" only when
 * the daemon acknowledges within 5 s; one busy in a plan stops after
 * the plan.
 *
 * (Hidden: `procoupd --worker` is how the daemon spawns its worker
 * processes; see exp/worker.hh. It is never typed.)
 */

#include <cfloat>
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "procoup/exp/daemon.hh"
#include "procoup/exp/harness.hh"
#include "procoup/exp/service.hh"
#include "procoup/exp/worker.hh"

namespace {

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [--state DIR] [--jobs N] [--retries N]\n"
        "          [--lease-ms N] [--disk-cache DIR] [--no-workers]\n"
        "       %s --socket PATH --stop\n",
        argv0, argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace procoup::exp;

    runWorkerIfRequested(argc, argv);

    DaemonOptions opts;
    bool stop = false;
    int retries = opts.retryPolicy.maxRetries();
    for (Args a(argc, argv, usage); a.next();) {
        if (a.arg() == "--help" || a.arg() == "-h")
            usage(argv[0]);
        if (!(a.value("--socket", &opts.socketPath) ||
              a.value("--state", &opts.stateDir) ||
              a.number("--jobs", 0, INT_MAX, &opts.jobs) ||
              a.number("--retries", 0, INT_MAX - 1, &retries) ||
              a.number("--lease-ms", DBL_TRUE_MIN, DBL_MAX, &opts.leaseMs) ||
              a.value("--disk-cache", &opts.diskCacheDir) ||
              a.set("--no-workers", &opts.inProcess) ||
              a.set("--stop", &stop)))
            a.bad();
    }
    opts.retryPolicy.maxAttempts = retries + 1;

    if (opts.socketPath.empty())
        usage(argv[0]);

    if (stop) {
        if (requestDaemonShutdown(opts.socketPath)) {
            std::fprintf(stderr, "procoupd: daemon on %s stopped\n",
                         opts.socketPath.c_str());
            return 0;
        }
        std::fprintf(stderr,
                     "procoupd: no daemon on %s acknowledged the stop\n",
                     opts.socketPath.c_str());
        return 1;
    }

    SweepDaemon daemon(std::move(opts));
    return daemon.serve();
}
