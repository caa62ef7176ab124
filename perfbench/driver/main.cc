/**
 * @file
 * perfbench_driver: runs one benchmark workload and writes its raw
 * report (samples, digests, counts, host record) as JSON. perfbench/
 * run.py builds this binary, runs it, checks the digests against the
 * goldens and prints the metrics.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --out FILE --work-dir DIR [--daemon-bin PATH]
 *                    [--smoke]
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out FILE --work-dir DIR "
                 "[--daemon-bin PATH] [--smoke]\n",
                 why);
    std::exit(2);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

} // namespace

int
main(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((a + " needs a value").c_str());
            return argv[++i];
        };
        if (a == "--workload")
            opts.workload = value();
        else if (a == "--seed")
            opts.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opts.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace")
            opts.trace = value() == "1";
        else if (a == "--out")
            opts.outPath = value();
        else if (a == "--work-dir")
            opts.workDir = value();
        else if (a == "--daemon-bin")
            opts.daemonBin = value();
        else if (a == "--smoke")
            opts.smoke = true;
        else
            usage(("unknown option " + a).c_str());
    }
    if (opts.outPath.empty() || opts.workDir.empty())
        usage("--out and --work-dir are required");

    // Numbers from an unoptimized or assertion-heavy build mislead.
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "perfbench_driver: built as '%s'; refusing to report "
                     "numbers from a build that is not Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }

    Report report;
    int rc = 0;
    try {
        if (opts.workload == "sim-threaded")
            runSimThreaded(opts, report);
        else if (opts.workload == "compile-cold")
            runCompileCold(opts, report);
        else if (opts.workload == "service-soak" && !opts.daemonBin.empty())
            runServiceSoak(opts, report);
        else
            usage(("unknown workload '" + opts.workload +
                   "' (service-soak needs --daemon-bin)")
                      .c_str());
    } catch (const std::exception& e) {
        report.fail(std::string("exception: ") + e.what());
        rc = 1;
    }

    struct rusage self, children;
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);

    const std::string host =
        ",\"rss_self_kb\":" + std::to_string(self.ru_maxrss) +
        ",\"rss_children_kb\":" + std::to_string(children.ru_maxrss) +
        ",\"host\":{\"nproc\":" +
        std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
        ",\"cpu_model\":" + jsonString(cpuModel()) +
        ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
        ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) + "}";
    if (!writeFile(opts.outPath, report.toJson(opts, host))) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     opts.outPath.c_str());
        return 1;
    }
    return rc;
}
