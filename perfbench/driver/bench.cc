#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/ir/frontend.hh"
#include "procoup/lang/parser.hh"
#include "procoup/opt/passes.hh"
#include "procoup/sim/simulator.hh"
#include "procoup/support/error.hh"

namespace perfbench {

using namespace procoup;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msSince(Clock::time_point start)
{
    return secondsSince(start) * 1000.0;
}

int
setupReps(const Options& opts)
{
    return opts.smoke || opts.trace ? 1 : 5;
}

int
minPasses(const Options& opts)
{
    return opts.smoke ? 1 : 3;
}

std::uint64_t
generatorFirstSeed(std::uint64_t seed)
{
    return seed * 100000 + 1;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

namespace {

std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonList(const std::vector<double>& v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        out += i ? "," : "";
        out += jsonNum(v[i]);
    }
    return out + "]";
}

std::int64_t
nsSince(Clock::time_point epoch)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

} // namespace

void
Report::fail(const std::string& why)
{
    ++failed;
    if (errors.size() < 20)
        errors.push_back(why);
}

void
Report::checkDigest(const std::string& label, const std::string& digest,
                    const char* where)
{
    const auto [it, inserted] = digests.emplace(label, digest);
    if (!inserted && it->second != digest)
        fail(label + ": " + where + " digest " + digest + " differs from " +
             it->second);
}

void
Report::checkCount(const std::string& name, double value)
{
    const auto [it, inserted] = counts.emplace(name, value);
    if (!inserted && it->second != value)
        fail("count " + name + " = " + jsonNum(value) +
             " differs from " + jsonNum(it->second));
}

std::string
Report::toJson(const Options& opts, const std::string& tail) const
{
    std::string out = "{";
    out += "\"workload\":" + jsonString(opts.workload);
    out += ",\"seed\":" + std::to_string(opts.seed);
    out += ",\"trace\":" + std::string(opts.trace ? "true" : "false");
    out += ",\"smoke\":" + std::string(opts.smoke ? "true" : "false");
    out += ",\"setup_s\":" + jsonList(setupS);
    out += ",\"passes\":[";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        out += i ? "," : "";
        out += "{\"wall_s\":" + jsonNum(passes[i].wallS) +
               ",\"points_per_s\":" + jsonNum(passes[i].pointsPerS) +
               ",\"point_ms\":" + jsonList(passes[i].pointMs) + "}";
    }
    out += "]";
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i) {
        out += i ? "," : "";
        out += jsonString(errors[i]);
    }
    out += "],\"digests\":{";
    bool first = true;
    for (const auto& [label, d] : digests) {
        out += first ? "" : ",";
        out += jsonString(label) + ":" + jsonString(d);
        first = false;
    }
    out += "},\"counts\":{";
    first = true;
    for (const auto& [name, v] : counts) {
        out += first ? "" : ",";
        out += jsonString(name) + ":" + jsonNum(v);
        first = false;
    }
    out += "},\"layers\":{";
    first = true;
    for (const auto& [name, v] : layers) {
        out += first ? "" : ",";
        out += jsonString(name) + ":" + jsonList(v);
        first = false;
    }
    return out + "}" + tail + "}\n";
}

Tracer::Scope::Scope(Tracer* t, const char* name)
    : _t(t->enabled ? t : nullptr)
{
    if (!_t)
        return;
    _index = static_cast<int>(_t->_spans.size());
    _savedParent = _t->_current;
    _t->_spans.push_back(
        {name, nsSince(_t->_epoch), 0, _t->_current, _t->_traceId});
    _t->_current = _index;
}

Tracer::Scope::~Scope()
{
    if (!_t)
        return;
    _t->_spans[static_cast<std::size_t>(_index)].endNs = nsSince(_t->_epoch);
    _t->_current = _savedParent;
}

void
Tracer::setTrace(const std::string& label)
{
    if (!enabled)
        return;
    _traceIds.push_back(label);
    _traceId = static_cast<int>(_traceIds.size()) - 1;
}

std::map<std::string, double>
Tracer::selfTimesMs(std::size_t mark) const
{
    std::map<std::string, double> self;
    for (std::size_t i = mark; i < _spans.size(); ++i) {
        const Span& s = _spans[i];
        const double ms = static_cast<double>(s.endNs - s.startNs) / 1e6;
        self[s.name] += ms;
        if (s.parent >= 0)
            self[_spans[static_cast<std::size_t>(s.parent)].name] -= ms;
    }
    return self;
}

std::vector<double>
Tracer::durationsUs(std::size_t mark, const std::string& name) const
{
    std::vector<double> out;
    for (std::size_t i = mark; i < _spans.size(); ++i)
        if (name == _spans[i].name)
            out.push_back(
                static_cast<double>(_spans[i].endNs - _spans[i].startNs) /
                1e3);
    return out;
}

std::string
Tracer::chromeJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span& s = _spans[i];
        out += i ? ",\n" : "\n";
        out += "{\"name\":" + jsonString(s.name) +
               ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1" +
               ",\"ts\":" + jsonNum(static_cast<double>(s.startNs) / 1e3) +
               ",\"dur\":" +
               jsonNum(static_cast<double>(s.endNs - s.startNs) / 1e3) +
               ",\"args\":{\"trace_id\":" +
               jsonString(s.traceId >= 0
                           ? _traceIds[static_cast<std::size_t>(s.traceId)]
                           : "") +
               ",\"parent\":" +
               jsonString(s.parent >= 0
                           ? _spans[static_cast<std::size_t>(s.parent)].name
                           : "") +
               "}}";
    }
    return out + "\n]}\n";
}

std::string
runDigest(const sim::RunStats& stats, const std::vector<isa::Value>& memory)
{
    exp::ByteWriter w;
    exp::writeRunStats(w, stats);
    for (const auto& v : memory)
        exp::writeValue(w, v);
    return exp::fnv1a64Hex(w.bytes());
}

std::string
compileDigest(const sched::CompileResult& c)
{
    exp::ByteWriter w;
    exp::writeCompileResult(w, c);
    return exp::fnv1a64Hex(w.bytes());
}

std::uint64_t
irInstrs(const ir::Module& mod)
{
    std::uint64_t n = 0;
    for (const auto& f : mod.funcs)
        for (const auto& b : f.blocks)
            n += b.instrs.size();
    return n;
}

void
ScheduleCounts::add(const sched::CompileResult& c)
{
    for (const auto& fi : c.funcInfo) {
        ops += static_cast<std::uint64_t>(fi.totalOps);
        rows += static_cast<std::uint64_t>(fi.totalRows);
        copies += static_cast<std::uint64_t>(fi.copiesInserted);
    }
}

sched::CompileResult
pipelineCompile(const std::string& source,
                const config::MachineConfig& machine,
                const sched::CompileOptions& options, Tracer& tracer,
                PipelineTotals& totals)
{
    std::vector<lang::Sexpr> forms;
    {
        auto span = tracer.span("lang.parse");
        forms = lang::parse(source);
    }
    // The same clone count sched::compile derives.
    ir::FrontendOptions fopts;
    fopts.forkClones = options.forkClones > 0
        ? options.forkClones
        : static_cast<int>(machine.arithClusters().size());
    ir::Module mod;
    {
        auto span = tracer.span("ir.frontend");
        mod = ir::buildModule(forms, fopts);
    }
    totals.irInstrs += irInstrs(mod);
    if (options.runOptimizer) {
        auto span = tracer.span("opt.optimize");
        opt::optimize(mod);
    }
    totals.optInstrs += irInstrs(mod);

    sched::CompileOptions schedOnly = options;
    schedOnly.runOptimizer = false;
    sched::CompileResult result;
    {
        auto span = tracer.span("sched.schedule");
        result = sched::compileModule(std::move(mod), machine, schedOnly);
    }
    totals.sched.add(result);
    return result;
}

void
addRunStats(const sim::RunStats& stats, PipelineTotals& totals)
{
    totals.cycles += stats.cycles;
    totals.issued +=
        stats.stallsTotal[static_cast<int>(sim::StallCause::Issued)];
    totals.noReadyOp +=
        stats.stallsTotal[static_cast<int>(sim::StallCause::NoReadyOp)];
    totals.fuCycles += sim::stallCountsTotal(stats.stallsTotal);
}

std::string
pipelinePoint(const exp::SweepPoint& point, exp::CompileCache& warmCache,
              std::set<std::string>& seenKeys, Tracer& tracer,
              PipelineTotals& totals, Report& report, double* runMs)
{
    tracer.setTrace(point.label);
    auto root = tracer.span("point");

    std::shared_ptr<const sched::CompileResult> compiled;
    {
        auto span = tracer.span("exp.cache_hit");
        bool hit = false;
        compiled = warmCache.compile(point.source, point.machine,
                                     point.options, &hit);
        if (!hit)
            report.fail(point.label + ": compile cache was not warm");
    }

    // A cache miss compiles layer by layer; do that once per compile
    // key and pass, and require the bytes the cache holds.
    if (seenKeys
            .insert(exp::CompileCache::key(point.source, point.machine,
                                           point.options))
            .second) {
        const sched::CompileResult fresh = pipelineCompile(
            point.source, point.machine, point.options, tracer, totals);
        if (compileDigest(fresh) != compileDigest(*compiled))
            report.fail(point.label +
                        ": layer-by-layer compile differs from the cache");
    }

    core::RunResult result;
    result.compiled = *compiled;
    try {
        std::optional<sim::Simulator> simulator;
        {
            auto span = tracer.span("sim.bind");
            simulator.emplace(point.machine, compiled->program,
                              point.simOptions);
        }
        const auto start = Clock::now();
        {
            auto span = tracer.span("sim.run");
            result.stats = simulator->run();
        }
        *runMs = msSince(start);
        result.memory.reserve(compiled->program.memorySize);
        for (std::uint32_t a = 0; a < compiled->program.memorySize; ++a)
            result.memory.push_back(simulator->memory().peek(a));
    } catch (const SimError& e) {
        report.fail(point.label + ": " + e.what());
        return "";
    }

    if (!point.verifyBenchmark.empty()) {
        auto span = tracer.span("verify");
        std::string why;
        if (!benchmarks::verify(point.verifyBenchmark, result, &why))
            report.fail(point.label + ": wrong result: " + why);
    }
    addRunStats(result.stats, totals);
    return runDigest(result.stats, result.memory);
}

double
pipelinePass(const exp::ExperimentPlan& plan, exp::CompileCache& warmCache,
             Tracer& tracer, const FaultTwins& twins, Report& report)
{
    const std::size_t mark = tracer.mark();
    const auto start = Clock::now();
    std::set<std::string> seenKeys;
    PipelineTotals totals;
    std::map<std::string, double> runMs;
    for (const exp::SweepPoint& p : plan.points()) {
        ++report.attempted;
        double ms = 0.0;
        const std::string digest =
            pipelinePoint(p, warmCache, seenKeys, tracer, totals, report,
                          &ms);
        runMs[p.label] = ms;
        if (!digest.empty())
            report.checkDigest(p.label, digest,
                               tracer.enabled ? "traced" : "bare");
    }
    const double wall = msSince(start);
    checkCompileCounts(totals, report);
    checkSimCounts(totals, report);
    if (tracer.enabled) {
        recordPipelineLayers(tracer, mark, totals, report);
        double faulted = 0.0, clean = 0.0;
        for (const auto& [f, c] : twins) {
            faulted += runMs[f];
            clean += runMs[c];
        }
        if (clean > 0.0)
            report.layer("fault.overhead_ratio", faulted / clean);
    }
    return wall;
}

void
checkScheduleCounts(const ScheduleCounts& s, Report& report)
{
    report.checkCount("sched.ops", static_cast<double>(s.ops));
    report.checkCount("sched.rows", static_cast<double>(s.rows));
    report.checkCount("sched.copies", static_cast<double>(s.copies));
}

void
checkCompileCounts(const PipelineTotals& t, Report& report)
{
    report.checkCount("ir.instrs", static_cast<double>(t.irInstrs));
    report.checkCount("opt.instrs_after", static_cast<double>(t.optInstrs));
    checkScheduleCounts(t.sched, report);
}

void
checkSimCounts(const PipelineTotals& t, Report& report)
{
    report.checkCount("sim.cycles", static_cast<double>(t.cycles));
    if (t.fuCycles == 0)
        return;  // nothing simulated; every point already failed
    report.checkCount("sim.fu_issue_ratio",
                      static_cast<double>(t.issued) /
                          static_cast<double>(t.fuCycles));
    report.checkCount("sim.no_ready_op_share",
                      static_cast<double>(t.noReadyOp) /
                          static_cast<double>(t.fuCycles));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

void
recordPipelineLayers(const Tracer& tracer, std::size_t mark,
                     const PipelineTotals& totals, Report& report)
{
    std::map<std::string, double> self = tracer.selfTimesMs(mark);
    for (const char* name : {"lang.parse", "ir.frontend", "opt.optimize",
                             "sched.schedule", "sim.bind", "sim.run"})
        report.layer(std::string(name) + "_ms", self[name]);
    report.layer("verify.ms", self["verify"]);
    const std::vector<double> hits = tracer.durationsUs(mark,
                                                        "exp.cache_hit");
    if (!hits.empty())
        report.layer("exp.cache_hit_us", median(hits));
    if (self["sim.run"] > 0.0)
        report.layer("sim.mcycles_per_s",
                     static_cast<double>(totals.cycles) /
                         (self["sim.run"] * 1000.0));
}

void
writeTrace(const Options& opts, const Tracer& tracer, Report& report)
{
    std::string table = "span self_ms (all traced passes)\n";
    for (const auto& [name, ms] : tracer.selfTimesMs(0)) {
        char line[128];
        std::snprintf(line, sizeof line, "%-20s %12.3f\n", name.c_str(), ms);
        table += line;
    }
    if (!writeFile(opts.workDir + "/trace.json", tracer.chromeJson()) ||
        !writeFile(opts.workDir + "/self_time.txt", table))
        report.fail("cannot write the trace into " + opts.workDir);
}

bool
writeFile(const std::string& path, const std::string& text)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
