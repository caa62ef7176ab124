#include "procoup/exp/runner.hh"

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/exp/journal.hh"
#include "procoup/exp/worker.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

namespace {

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::atomic<int> g_stopSignal{0};

void
stopSignalHandler(int sig)
{
    g_stopSignal.store(sig);
}

/** While alive, SIGINT/SIGTERM request a graceful drain (flag checked
 *  by every point-claiming loop) instead of killing the process with
 *  a torn WAL tail. Armed only for journaled sweeps — unjournaled
 *  runs keep their default signal disposition. */
struct ScopedStopSignals
{
    explicit ScopedStopSignals(bool arm) : armed(arm)
    {
        if (!armed)
            return;
        g_stopSignal.store(0);
        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sa_handler = stopSignalHandler;
        ::sigaction(SIGINT, &sa, &oldInt);
        ::sigaction(SIGTERM, &sa, &oldTerm);
    }

    ~ScopedStopSignals()
    {
        if (!armed)
            return;
        ::sigaction(SIGINT, &oldInt, nullptr);
        ::sigaction(SIGTERM, &oldTerm, nullptr);
    }

    bool armed;
    struct sigaction oldInt, oldTerm;
};

} // namespace

bool
sweepStopRequested()
{
    return g_stopSignal.load() != 0;
}

const RunOutcome&
SweepResult::at(const std::string& label) const
{
    for (const auto& o : outcomes)
        if (o.point->label == label)
            return o;
    PROCOUP_PANIC(strCat("no sweep outcome labeled ", label));
}

std::size_t
SweepResult::failedCount() const
{
    std::size_t n = 0;
    for (const auto& o : outcomes)
        n += o.failed ? 1 : 0;
    return n;
}

SweepRunner::SweepRunner(RunnerOptions options)
    : _options(std::move(options))
{
    if (_options.cache) {
        _cache = _options.cache;
    } else {
        _ownedCache = std::make_unique<CompileCache>();
        _cache = _ownedCache.get();
    }
    _cache->configure(_options.cacheEnabled, _options.diskCacheDir);
}

int
SweepRunner::resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

RunOutcome
executeSweepPoint(const SweepPoint& point, CompileCache& cache,
                  const RunnerOptions& options)
{
    const auto start = std::chrono::steady_clock::now();
    RunOutcome out;
    out.point = &point;

    out.compiled = cache.compile(point.source, point.machine,
                                 point.options, &out.compileCached);
    const sched::CompileResult& compiled = *out.compiled;

    auto run_and_verify = [&](const sim::SimOptions& sim_opts) {
        out.result = core::runProgram(point.machine, compiled.program,
                                      sim_opts, point.tracer,
                                      point.traceStalls);
        out.result.compiled.funcInfo = compiled.funcInfo;
        if (!point.verifyBenchmark.empty()) {
            std::string why;
            if (!benchmarks::verify(point.verifyBenchmark, out.result,
                                    &why))
                out.error = strCat(point.verifyBenchmark, "/",
                                   core::simModeName(point.mode),
                                   " computed a wrong result: ", why);
        }
    };

    try {
        run_and_verify(point.simOptions);
    } catch (const SimError& e) {
        if (!options.failSafe)
            throw;
        // Graceful degradation: this point becomes a structured error
        // record; the pool and every other point are unaffected.
        // Bounded retries under reseeded fault plans distinguish "this
        // fault schedule was unlucky" from a real failure — but the
        // *first* error is what gets recorded, so the record stays
        // deterministic. Backoff delays are jittered deterministically
        // from the point label so parallel retriers do not stampede.
        bool recovered = false;
        if (options.retryFaulted && point.simOptions.faults.enabled) {
            const std::uint64_t jitter_seed = fnv1a64(point.label);
            const int budget = options.retryPolicy.maxRetries();
            for (int retry = 1; retry <= budget && !recovered;
                 ++retry) {
                out.retries = retry;
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        options.retryPolicy.delayMs(jitter_seed,
                                                    retry)));
                sim::SimOptions retry_opts = point.simOptions;
                retry_opts.faults = retry_opts.faults.reseeded(
                    point.simOptions.faults.seed *
                        0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(retry));
                try {
                    run_and_verify(retry_opts);
                    recovered = true;
                } catch (const SimError&) {
                }
            }
        }
        if (!recovered) {
            out.result = core::RunResult{};
            out.failed = true;
            out.errorKind = e.kind();
            out.errorCycle = e.cycle();
            out.error = e.what();
        }
    }
    out.wallMs = msSince(start);
    return out;
}

OutcomeRecord
makeOutcomeRecord(const RunOutcome& o, const std::string& fingerprint)
{
    OutcomeRecord rec;
    rec.label = o.point ? o.point->label : "";
    rec.pointFingerprint = fingerprint;
    rec.failed = o.failed;
    rec.errorKind = static_cast<std::uint8_t>(o.errorKind);
    rec.errorCycle = o.errorCycle;
    rec.error = o.error;
    rec.retries = static_cast<std::uint32_t>(o.retries);
    rec.compileCached = o.compileCached;
    rec.wallMs = o.wallMs;
    if (!o.failed) {
        rec.stats = o.result.stats;
        rec.memory = o.result.memory;
        rec.symbols = o.result.compiled.program.symbols;
        rec.memorySize = o.result.compiled.program.memorySize;
        rec.funcInfo = o.result.compiled.funcInfo;
    }
    return rec;
}

OutcomeRecord
executePointToRecord(const SweepPoint& point, const std::string& fp,
                     CompileCache& cache, const RunnerOptions& options)
{
    OutcomeRecord rec;
    rec.label = point.label;
    rec.pointFingerprint = fp;
    try {
        rec = makeOutcomeRecord(executeSweepPoint(point, cache, options),
                                fp);
    } catch (const SimError& e) {
        rec.threw = 1;
        rec.errorKind = static_cast<std::uint8_t>(e.kind());
        rec.errorCycle = e.cycle();
        rec.error = e.what();
    } catch (const CompileError& e) {
        rec.threw = 2;
        rec.error = e.what();
    } catch (const std::exception& e) {
        rec.threw = 3;
        rec.error = e.what();
    }
    return rec;
}

std::exception_ptr
recordException(const OutcomeRecord& rec)
{
    switch (rec.threw) {
      case 0:
        return nullptr;
      case 1:
        return std::make_exception_ptr(
            SimError(static_cast<SimErrorKind>(rec.errorKind),
                     rec.errorCycle, rec.error));
      case 2:
        return std::make_exception_ptr(CompileError(rec.error));
      default:
        return std::make_exception_ptr(std::runtime_error(rec.error));
    }
}

RunOutcome
makeRunOutcome(const OutcomeRecord& rec, const SweepPoint* point)
{
    RunOutcome o;
    o.point = point;
    o.failed = rec.failed;
    o.errorKind = static_cast<SimErrorKind>(rec.errorKind);
    o.errorCycle = rec.errorCycle;
    o.error = rec.error;
    o.retries = static_cast<int>(rec.retries);
    o.compileCached = rec.compileCached;
    o.wallMs = rec.wallMs;
    if (!rec.failed) {
        o.result.stats = rec.stats;
        o.result.memory = rec.memory;
        o.result.compiled.program.symbols = rec.symbols;
        o.result.compiled.program.memorySize = rec.memorySize;
        o.result.compiled.funcInfo = rec.funcInfo;
    }
    return o;
}

void
finishPlanRun(const std::vector<std::exception_ptr>& failures,
              const std::vector<RunOutcome>& outcomes,
              bool exitOnVerifyFailure)
{
    for (const std::exception_ptr& e : failures)
        if (e)
            std::rethrow_exception(e);
    if (!exitOnVerifyFailure)
        return;
    bool verify_failed = false;
    for (const auto& o : outcomes)
        if (!o.error.empty() && !o.failed) {
            verify_failed = true;
            std::fprintf(stderr, "FATAL: %s\n", o.error.c_str());
        }
    if (verify_failed)
        std::exit(1);
}

void
runOnThreads(std::size_t threads, const std::function<void()>& body)
{
    if (threads <= 1) {
        body();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back(body);
    for (auto& t : pool)
        t.join();
}

SweepResult
SweepRunner::run(const ExperimentPlan& plan)
{
    const auto start = std::chrono::steady_clock::now();
    const auto cache_before = _cache->stats();

    SweepResult res;
    res.jobs = resolveJobs(_options.jobs);
    res.outcomes.resize(plan.size());
    std::vector<std::exception_ptr> failures(plan.size());

    // ---- Journal: replay recorded points, execute the rest.
    ResultsJournal journal;
    if (!_options.journalDir.empty() &&
        !journal.open(_options.journalDir, plan))
        std::fprintf(stderr,
                     "warning: cannot open results journal in %s; "
                     "running without one\n",
                     _options.journalDir.c_str());

    std::vector<std::size_t> pending;
    pending.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const std::string_view kept = journal.replay(i);
        OutcomeRecord rec;
        if (!kept.empty() && decodeOutcomeRecord(kept, &rec)) {
            res.outcomes[i] = makeRunOutcome(rec, &plan.points()[i]);
            res.outcomes[i].replayed = true;
            ++res.replayedPoints;
        } else {
            pending.push_back(i);
        }
    }

    // SIGINT/SIGTERM on a journaled sweep mean "drain and keep the
    // WAL resumable", not "die mid-append".
    ScopedStopSignals stop_guard(journal.isOpen());

    // ---- Worker isolation: the supervised worker path, with the
    // per-point timeout as a lease no heartbeat renews. Tracer-carrying
    // points stay in this process (their sink lives here).
    if (_options.isolateWorkers) {
        std::vector<std::size_t> isolated, local;
        for (std::size_t i : pending)
            (plan.points()[i].tracer ? local : isolated).push_back(i);
        pending.swap(local);
        SupervisorOptions sopts;
        sopts.workers = res.jobs;
        sopts.retryPolicy = _options.retryPolicy;
        sopts.leaseMs = _options.workerTimeoutMs;
        WorkerPool pool;  // this run's workers, reaped at the block's end
        superviseWorkers(pool, plan, isolated, journal.fingerprints(),
                         _options, *_cache, sopts,
                         [&](std::size_t i, OutcomeRecord&& rec,
                             std::string_view bytes) {
                             journal.commit(i, rec, bytes);
                             failures[i] = recordException(rec);
                             res.outcomes[i] =
                                 makeRunOutcome(rec, &plan.points()[i]);
                         });
    }

    // In-process points: on the calling thread at --jobs 1.
    std::atomic<std::size_t> next{0};
    runOnThreads(std::min<std::size_t>(res.jobs, pending.size()), [&] {
        for (std::size_t n = next++;
             n < pending.size() && !sweepStopRequested(); n = next++) {
            const std::size_t i = pending[n];
            try {
                const RunOutcome& o = res.outcomes[i] =
                    executeSweepPoint(plan.points()[i], *_cache, _options);
                if (journal.isOpen())
                    journal.commit(
                        i, makeOutcomeRecord(o, journal.fingerprints()[i]));
            } catch (...) {
                failures[i] = std::current_exception();
            }
        }
    });

    // ---- Interrupted drain: every in-flight point has finished and
    // been journaled; flush-and-close the WAL so it resumes cleanly,
    // then exit with the conventional fatal-signal code. std::exit
    // skips destructors, hence the explicit close.
    if (const int sig = g_stopSignal.load()) {
        journal.close();
        std::fprintf(stderr,
                     "interrupted by %s: %zu of %zu points journaled "
                     "in %s; rerun to resume\n",
                     sig == SIGTERM ? "SIGTERM" : "SIGINT",
                     journal.loadedCount(), plan.size(),
                     _options.journalDir.c_str());
        std::exit(128 + sig);
    }

    finishPlanRun(failures, res.outcomes, _options.exitOnVerifyFailure);
    journal.finalize();

    const auto cache_after = _cache->stats();
    res.cacheStats.hits = cache_after.hits - cache_before.hits;
    res.cacheStats.misses = cache_after.misses - cache_before.misses;
    res.cacheStats.compiles =
        cache_after.compiles - cache_before.compiles;
    res.cacheStats.diskHits =
        cache_after.diskHits - cache_before.diskHits;
    res.cacheStats.diskStores =
        cache_after.diskStores - cache_before.diskStores;
    res.cacheStats.diskCorrupt =
        cache_after.diskCorrupt - cache_before.diskCorrupt;
    res.wallMs = msSince(start);
    return res;
}

} // namespace exp
} // namespace procoup
