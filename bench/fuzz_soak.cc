/**
 * @file
 * Differential fuzz soak as a standard harness binary.
 *
 * Builds a soak plan (gen/soak.hh) over a contiguous seed range —
 * every generated program x {base, bus} machine x {SEQ, STS, TPE,
 * Coupled}, clean and under a seeded fault plan — runs it on the
 * sweep engine like every other harness (so --jobs, --faults,
 * --sweep-report, the compile cache and fail-safe mode all apply),
 * and checks the generator's invariants in the render step:
 *
 *   - no point may raise SimError;
 *   - every mode reproduces clean SEQ's data symbols bit for bit;
 *   - every faulted run reproduces its clean twin (faults perturb
 *     timing, never values).
 *
 * Any violation is minimized by the delta-debugging reducer and
 * printed as a ready-to-commit corpus witness. The summary is stable
 * "key: value" lines consumed by scripts/collect_fuzz.py.
 *
 * On top of every harness flag it takes its seed range:
 *
 *   --programs N        generated programs (default 200)
 *   --first-seed S      seed of the first program (default 1)
 *
 * With --journal DIR the soak is durable: a killed soak resumes from
 * its write-ahead journal instead of starting over, and the summary
 * gains points_replayed / points_executed lines reporting how much of
 * the sweep was restored versus actually run.
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "procoup/exp/harness.hh"
#include "procoup/exp/worker.hh"
#include "procoup/gen/soak.hh"
#include "procoup/support/strings.hh"

using namespace procoup;

namespace {

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--programs N] [--first-seed S] "
                 "[harness flags]\n"
                 "see bench/fuzz_soak.cc and src/procoup/exp/harness.hh\n",
                 argv0);
    std::exit(1);
}

} // namespace

int
main(int argc, char** argv)
{
    exp::runWorkerIfRequested(argc, argv);
    gen::SoakOptions opts;
    opts.programs = 200;
    const exp::HarnessOptions options = exp::HarnessOptions::parse(
        argc, argv,
        [&](exp::Args& a) {
            return a.number("--programs", 1, INT_MAX, &opts.programs) ||
                   a.number("--first-seed", std::uint64_t{0},
                            UINT64_MAX, &opts.firstSeed);
        },
        usage);
    const bool journaled = !options.runner.journalDir.empty();

    gen::SoakPlan sp = gen::buildSoakPlan(opts);

    bool bad = false;
    const int rc = exp::runHarness(
        sp.plan, options, [&](const exp::SweepResult& sweep) {
            std::vector<gen::SoakMismatch> mm =
                gen::analyzeSoak(sp, sweep);
            int modeBad = 0, faultBad = 0, simBad = 0;
            for (const auto& m : mm) {
                if (m.kind == "mode-mismatch")
                    ++modeBad;
                else if (m.kind == "fault-mismatch")
                    ++faultBad;
                else
                    ++simBad;
            }

            std::printf("fuzz soak over seeds [%llu, %llu]\n",
                        static_cast<unsigned long long>(opts.firstSeed),
                        static_cast<unsigned long long>(
                            opts.firstSeed + opts.programs - 1));
            std::printf("programs: %d\n", opts.programs);
            std::printf("points: %zu\n", sweep.outcomes.size());
            if (journaled) {
                std::printf("points_replayed: %zu\n",
                            sweep.replayedPoints);
                std::printf("points_executed: %zu\n",
                            sweep.outcomes.size() -
                                sweep.replayedPoints);
            }
            std::printf("wall_ms: %s\n",
                        fixed(sweep.wallMs, 1).c_str());
            std::printf("programs_per_sec: %s\n",
                        fixed(sweep.wallMs > 0.0
                                  ? opts.programs * 1000.0 /
                                        sweep.wallMs
                                  : 0.0,
                              1)
                            .c_str());
            std::printf("mismatches_mode: %d\n", modeBad);
            std::printf("mismatches_fault: %d\n", faultBad);
            std::printf("mismatches_sim_error: %d\n", simBad);
            std::printf("mismatches_total: %zu\n", mm.size());

            if (!mm.empty()) {
                bad = true;
                gen::reduceMismatches(mm, opts);
                for (const auto& m : mm) {
                    std::printf("\nMISMATCH seed=%llu kind=%s at %s\n"
                                "  %s\nreduced witness:\n%s",
                                static_cast<unsigned long long>(m.seed),
                                m.kind.c_str(), m.label.c_str(),
                                m.detail.c_str(), m.reduced.c_str());
                }
            }
        });
    return rc != 0 ? rc : (bad ? 1 : 0);
}
