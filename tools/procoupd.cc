/**
 * @file
 * procoupd — the long-lived sweep daemon (exp/daemon.hh).
 *
 * Usage:
 *   procoupd --socket PATH [--state DIR] [--jobs N] [--retries N]
 *            [--lease-ms N] [--heartbeat-ms N] [--disk-cache DIR]
 *            [--no-workers]
 *   procoupd --socket PATH --stop        ask a running daemon to exit
 *
 * Clients submit plans with `<harness> --connect PATH` (any runner
 * harness or pcsim). Results stream back per point and are journaled
 * write-ahead in the state directory, so killing the daemon mid-sweep
 * and restarting it resumes resubmitted plans without recompiling or
 * re-running completed points.
 *
 * (Hidden: `procoupd --worker` is how the daemon spawns its worker
 * processes; see exp/worker.hh. It is never typed.)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "procoup/exp/daemon.hh"
#include "procoup/exp/service.hh"
#include "procoup/exp/worker.hh"

namespace {

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [--state DIR] [--jobs N] [--retries N]\n"
        "          [--lease-ms N] [--heartbeat-ms N] [--disk-cache DIR]\n"
        "          [--no-workers]\n"
        "       %s --socket PATH --stop\n",
        argv0, argv0);
    std::exit(2);
}

double
parseNum(const char* argv0, const std::string& flag,
         const std::string& value)
{
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (!end || *end != '\0' || v < 0) {
        std::fprintf(stderr, "%s: bad value for %s: '%s'\n", argv0,
                     flag.c_str(), value.c_str());
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace procoup::exp;

    runWorkerIfRequested(argc, argv);

    DaemonOptions opts;
    bool stop = false;

    auto value = [&](int& i, const std::string& flag) -> std::string {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: %s needs a value\n", argv[0],
                         flag.c_str());
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--socket") {
            opts.socketPath = value(i, a);
        } else if (a == "--state") {
            opts.stateDir = value(i, a);
        } else if (a == "--jobs") {
            opts.jobs =
                static_cast<int>(parseNum(argv[0], a, value(i, a)));
        } else if (a == "--retries") {
            opts.retries =
                static_cast<int>(parseNum(argv[0], a, value(i, a)));
        } else if (a == "--lease-ms") {
            opts.leaseMs = parseNum(argv[0], a, value(i, a));
        } else if (a == "--heartbeat-ms") {
            opts.heartbeatMs = parseNum(argv[0], a, value(i, a));
        } else if (a == "--disk-cache") {
            opts.diskCacheDir = value(i, a);
        } else if (a == "--no-workers") {
            opts.inProcess = true;
        } else if (a == "--stop") {
            stop = true;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         a.c_str());
            usage(argv[0]);
        }
    }

    if (opts.socketPath.empty())
        usage(argv[0]);

    if (stop) {
        if (requestDaemonShutdown(opts.socketPath)) {
            std::fprintf(stderr, "procoupd: daemon on %s stopped\n",
                         opts.socketPath.c_str());
            return 0;
        }
        std::fprintf(stderr, "procoupd: no daemon answered on %s\n",
                     opts.socketPath.c_str());
        return 1;
    }

    SweepDaemon daemon(std::move(opts));
    return daemon.serve();
}
