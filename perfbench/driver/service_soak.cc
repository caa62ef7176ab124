/**
 * @file
 * service-soak: a procoupd daemon with a warm disk compile cache serves
 * a generated soak plan. Each pass submits it under a pass-unique name
 * (the write path: lease, execute, journal append, stream) and then
 * resubmits it unchanged (the read path: journal replay and re-stream).
 * A point simulates for well under a millisecond, so supervision,
 * record encoding, the journal and the socket take most of the time,
 * and a change that speeds execution but slows replay shows here.
 */

#include "bench.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <thread>

#include "procoup/exp/journal.hh"
#include "procoup/exp/runner.hh"
#include "procoup/exp/service.hh"
#include "procoup/gen/soak.hh"
#include "procoup/support/strings.hh"

namespace perfbench {

using namespace procoup;
namespace fs = std::filesystem;

namespace {

/** Generated programs per plan; each contributes 12 points. */
constexpr int kPrograms = 320;
constexpr int kSmokePrograms = 4;

/** Daemon workers: the client, the daemon and the workers stay within
 *  nproc, because a worker's point times include every preemption it
 *  suffers. */
int
daemonJobs()
{
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    return n > 2 ? static_cast<int>(n) - 2 : 1;
}

/** A procoupd child process, stopped and reaped on destruction. */
class DaemonProcess
{
  public:
    DaemonProcess(const std::string& binary, const std::string& dir)
        : _socket(dir + "/d.sock"), _cacheDir(dir + "/cache")
    {
        fs::create_directories(dir);
        const std::string jobs = std::to_string(daemonJobs());
        const std::string state = dir + "/state";
        std::vector<const char*> argv = {
            binary.c_str(), "--socket", _socket.c_str(),   "--state",
            state.c_str(),  "--jobs",   jobs.c_str(),      "--disk-cache",
            _cacheDir.c_str(), nullptr};
        const int log = ::open((dir + "/daemon.log").c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                               0644);
        _pid = ::fork();
        if (_pid == 0) {
            // Never outlive the driver, whatever happens to it.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (log >= 0) {
                ::dup2(log, STDOUT_FILENO);
                ::dup2(log, STDERR_FILENO);
            }
            ::execv(binary.c_str(), const_cast<char* const*>(argv.data()));
            ::_exit(127);
        }
        if (log >= 0)
            ::close(log);
    }

    ~DaemonProcess() { stop(); }

    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    /** Wait until the daemon accepts connections. */
    bool ready(double timeoutMs) const
    {
        const auto start = Clock::now();
        while (_pid > 0 && msSince(start) < timeoutMs) {
            const int fd = exp::connectUnixSocket(_socket);
            if (fd >= 0) {
                ::close(fd);
                return true;
            }
            int status = 0;
            if (::waitpid(_pid, &status, WNOHANG) == _pid)
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return false;
    }

    void stop()
    {
        if (_pid <= 0)
            return;
        exp::requestDaemonShutdown(_socket);
        const auto start = Clock::now();
        int status = 0;
        while (::waitpid(_pid, &status, WNOHANG) == 0) {
            if (msSince(start) > 10000.0) {
                ::kill(_pid, SIGKILL);
                ::waitpid(_pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        _pid = -1;
    }

    const std::string& socket() const { return _socket; }
    const std::string& cacheDir() const { return _cacheDir; }

  private:
    std::string _socket;
    std::string _cacheDir;
    pid_t _pid = -1;
};

exp::ExperimentPlan
renamed(const exp::ExperimentPlan& plan, const std::string& name)
{
    exp::ExperimentPlan out(name);
    for (const exp::SweepPoint& p : plan.points())
        out.add(p);
    return out;
}

/** One clean point per (program, mode): every compile key of the plan. */
exp::ExperimentPlan
warmPlan(const exp::ExperimentPlan& plan)
{
    exp::ExperimentPlan out("warm");
    for (const exp::SweepPoint& p : plan.points())
        if (p.label.find("@base/clean") != std::string::npos)
            out.add(p);
    return out;
}

/** The knobs the soak harness runs with; they travel in the plan. */
exp::RunnerOptions
soakOptions()
{
    exp::RunnerOptions ro;
    ro.jobs = daemonJobs();
    ro.failSafe = true;
    ro.exitOnVerifyFailure = false;
    return ro;
}

exp::SweepResult
submit(const exp::ExperimentPlan& plan, const DaemonProcess& daemon)
{
    exp::ClientOptions co;
    co.socketPath = daemon.socket();
    co.totalTimeoutMs = 60000.0;
    co.exitOnVerifyFailure = false;
    return exp::runPlanOverSocket(plan, soakOptions(), co);
}

/** Check one executed copy of the plan against the first one seen;
 *  the totals are counts only when @p res covers the whole plan. */
void
checkOutcomes(const exp::SweepResult& res, const char* where,
              Report& report, bool wholePlan = true)
{
    PipelineTotals totals;
    for (const exp::RunOutcome& o : res.outcomes) {
        ++report.attempted;
        if (o.failed || !o.error.empty()) {
            report.fail(o.point->label + ": " + o.error);
            continue;
        }
        report.checkDigest(o.point->label,
                           runDigest(o.result.stats, o.result.memory), where);
        addRunStats(o.result.stats, totals);
    }
    if (wholePlan)
        checkSimCounts(totals, report);
}

struct Submission
{
    double freshMs = 0.0;
    double replayMs = 0.0;
    exp::SweepResult fresh;
};

/** Submit @p plan fresh, then resubmit it; check both and the soak
 *  invariants. Client reconnects are added to @p reconnects. */
Submission
submitPass(const gen::SoakPlan& sp, const exp::ExperimentPlan& plan,
           const DaemonProcess& daemon, Tracer& tracer, Report& report,
           std::uint64_t& reconnects)
{
    Submission s;
    auto start = Clock::now();
    {
        auto span = tracer.span("exp.daemon_fresh");
        s.fresh = submit(plan, daemon);
    }
    s.freshMs = msSince(start);
    start = Clock::now();
    exp::SweepResult replay;
    {
        auto span = tracer.span("exp.daemon_replay");
        replay = submit(plan, daemon);
    }
    s.replayMs = msSince(start);

    // A client that loses its connection reconnects and receives the
    // plan again from the journal; DaemonStats then describe only the
    // last session, so the lease counts of that pass are not compared.
    const exp::DaemonStats& d = s.fresh.daemon;
    const double n = static_cast<double>(plan.size());
    if ((d.reconnects == 0 ? d.executed : d.executed + d.replayed) !=
            plan.size() ||
        replay.daemon.replayed != plan.size())
        report.fail(strCat(plan.name(), ": expected ", plan.size(),
                           " executed then replayed, got ", d.executed,
                           " and ", replay.daemon.replayed));
    checkOutcomes(s.fresh, "fresh", report);
    checkOutcomes(replay, "replay", report);
    for (const gen::SoakMismatch& m : gen::analyzeSoak(sp, s.fresh))
        report.fail(m.kind + " at " + m.label + ": " + m.detail);

    reconnects += d.reconnects + replay.daemon.reconnects;
    if (d.reconnects == 0) {
        report.checkCount("exp.leases_issued",
                          static_cast<double>(d.leasesIssued));
        report.checkCount("exp.leases_reassigned",
                          static_cast<double>(d.leasesReassigned));
        report.checkCount("exp.worker_lost",
                          static_cast<double>(d.workerLost));
    }
    // Racing workers may compile one key twice: recorded, not checked.
    report.layer("exp.daemon_compiles", static_cast<double>(d.compiles));
    if (d.cacheHits + d.cacheMisses > 0)
        report.layer("exp.cache_hit_rate",
                     static_cast<double>(d.cacheHits) /
                         static_cast<double>(d.cacheHits + d.cacheMisses));
    report.layer("exp.replay_points_per_s", n * 1000.0 / s.replayMs);
    return s;
}

/**
 * The write and read paths of one pass, measured in this process on
 * the records the daemon streamed: record encoding, journal append of
 * the whole pass, journal open of that directory.
 */
void
journalPass(const exp::ExperimentPlan& plan, const exp::SweepResult& fresh,
            const std::string& dir, Tracer& tracer, Report& report)
{
    std::vector<std::string> fps;
    for (const exp::SweepPoint& p : plan.points())
        fps.push_back(exp::pointFingerprint(p));

    std::vector<exp::OutcomeRecord> records;
    std::size_t bytes = 0;
    {
        auto span = tracer.span("exp.record_encode");
        for (std::size_t i = 0; i < fresh.outcomes.size(); ++i) {
            records.push_back(exp::makeOutcomeRecord(fresh.outcomes[i],
                                                     fps[i]));
            bytes += exp::encodeOutcomeRecord(records.back()).size();
        }
    }
    if (bytes == 0)
        report.fail("no outcome records were encoded");

    {
        exp::ResultsJournal journal;
        if (!journal.open(dir, plan)) {
            report.fail("cannot open a results journal in " + dir);
            return;
        }
        {
            auto span = tracer.span("exp.journal_append");
            for (const exp::OutcomeRecord& rec : records)
                journal.append(rec);
        }
        journal.finalize();
    }
    exp::ResultsJournal reopened;
    {
        auto span = tracer.span("exp.journal_open");
        reopened.open(dir, plan);
    }
    if (reopened.loadedCount() != plan.size())
        report.fail(strCat("journal reopened with ", reopened.loadedCount(),
                           " of ", plan.size(), " records"));
}

} // namespace

void
runServiceSoak(const Options& opts, Report& report)
{
    gen::SoakOptions so;
    so.firstSeed = generatorFirstSeed(opts.seed);
    so.programs = opts.smoke ? kSmokePrograms : kPrograms;
    const gen::SoakPlan sp = gen::buildSoakPlan(so);

    // Set-up: start a daemon on fresh directories and warm its disk
    // compile cache with one clean point per (program, mode). The
    // repetitions timed later start daemons of their own and stop them.
    int daemons = 0;
    auto setup = [&] {
        const std::string dir = strCat(opts.workDir, "/daemon", daemons++);
        auto d = std::make_unique<DaemonProcess>(opts.daemonBin, dir);
        if (!d->ready(20000.0))
            throw std::runtime_error("procoupd did not come up; see " +
                                     dir + "/daemon.log");
        checkOutcomes(submit(warmPlan(sp.plan), *d), "warm-up", report,
                      /*wholePlan=*/false);
        return d;
    };
    const std::unique_ptr<DaemonProcess> daemon = timedSetup(setup, report);

    Tracer tracer;
    std::uint64_t reconnects = 0;
    int pass = 0;
    auto nextPlan = [&] {
        return renamed(sp.plan, strCat("soak-", opts.seed, "-pass", pass++));
    };

    const auto start = Clock::now();
    if (!opts.trace) {
        for (int i = 0;
             i < minPasses(opts) || secondsSince(start) < opts.seconds;
             ++i) {
            const exp::ExperimentPlan plan = nextPlan();
            const Submission s =
                submitPass(sp, plan, *daemon, tracer, report, reconnects);
            std::vector<double> pointMs;
            for (const exp::RunOutcome& o : s.fresh.outcomes)
                pointMs.push_back(o.wallMs);
            report.passes.push_back(
                {(s.freshMs + s.replayMs) / 1000.0,
                 static_cast<double>(plan.size()) * 1000.0 / s.freshMs,
                 std::move(pointMs)});
            repeatSetup(opts, setup, report);
        }
        repeatSetup(opts, setup, report, /*all=*/true);
        report.layer("exp.client_reconnects",
                     static_cast<double>(reconnects));
        return;
    }

    // Traced run. Each round: an untraced and a traced submission pass
    // (their difference is part of the tracing overhead), the same plan
    // in-process at the daemon's worker count (the transport overhead),
    // and a bare and a traced layer-by-layer pass over every point.
    exp::CompileCache warm;
    FaultTwins twins;
    for (const exp::SweepPoint& p : sp.plan.points()) {
        warm.compile(p.source, p.machine, p.options);
        const std::size_t at = p.label.find("/fault");
        if (at != std::string::npos)
            twins.emplace_back(p.label, p.label.substr(0, at) + "/clean");
    }

    std::vector<double> untracedMs, tracedMs, freshMs, inProcessMs;
    std::vector<double> bareMs, layerMs;
    for (int round = 0;
         round < minPasses(opts) || secondsSince(start) < opts.seconds;
         ++round) {
        tracer.enabled = false;
        const exp::ExperimentPlan untraced = nextPlan();
        Submission s = submitPass(sp, untraced, *daemon, tracer, report,
                                  reconnects);
        untracedMs.push_back(s.freshMs + s.replayMs);

        tracer.enabled = true;
        const exp::ExperimentPlan plan = nextPlan();
        tracer.setTrace(plan.name());
        const std::size_t mark = tracer.mark();
        {
            auto span = tracer.span("exp.submit_encode");
            if (exp::encodePlanSubmit(plan, soakOptions()).empty())
                report.fail("empty plan-submit body");
        }
        s = submitPass(sp, plan, *daemon, tracer, report, reconnects);
        tracedMs.push_back(s.freshMs + s.replayMs);
        freshMs.push_back(s.freshMs);
        const std::string journalDir =
            strCat(opts.workDir, "/journal", round);
        journalPass(plan, s.fresh, journalDir, tracer, report);
        fs::remove_all(journalDir);
        std::map<std::string, double> self = tracer.selfTimesMs(mark);
        for (const char* name :
             {"exp.submit_encode", "exp.daemon_fresh", "exp.daemon_replay",
              "exp.record_encode", "exp.journal_append",
              "exp.journal_open"})
            report.layer(std::string(name) + "_ms", self[name]);

        exp::RunnerOptions ro = soakOptions();
        ro.diskCacheDir = daemon->cacheDir();
        exp::SweepRunner runner(ro);
        const auto t0 = Clock::now();
        const exp::SweepResult local = runner.run(plan);
        inProcessMs.push_back(msSince(t0));
        checkOutcomes(local, "in-process", report);

        tracer.enabled = false;
        bareMs.push_back(pipelinePass(sp.plan, warm, tracer, twins, report));
        tracer.enabled = true;
        layerMs.push_back(pipelinePass(sp.plan, warm, tracer, twins, report));
    }
    report.layer("exp.client_reconnects", static_cast<double>(reconnects));
    report.layer("exp.transport_overhead_ms",
                 median(freshMs) - median(inProcessMs));
    report.layer("trace.overhead_ms",
                 (median(tracedMs) - median(untracedMs)) +
                     (median(layerMs) - median(bareMs)));
    writeTrace(opts, tracer, report);
}

} // namespace perfbench
