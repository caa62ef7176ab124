#include "procoup/exp/plan.hh"

#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

SweepPoint&
ExperimentPlan::add(SweepPoint point)
{
    PROCOUP_ASSERT(!point.label.empty(), "sweep point needs a label");
    if (!_labels.insert(point.label).second)
        PROCOUP_PANIC(strCat("duplicate sweep-point label in plan ", _name,
                             ": ", point.label));
    _points.push_back(std::move(point));
    return _points.back();
}

bool
ExperimentPlan::tryAdd(SweepPoint&& point)
{
    if (point.label.empty() || !_labels.insert(point.label).second)
        return false;
    _points.push_back(std::move(point));
    return true;
}

std::string
ExperimentPlan::benchmarkLabel(const core::BenchmarkSource& bench,
                               core::SimMode mode,
                               const config::MachineConfig& machine)
{
    return strCat(bench.name, "/", core::simModeName(mode), "@",
                  machine.name);
}

SweepPoint&
ExperimentPlan::addBenchmark(const config::MachineConfig& machine,
                             const core::BenchmarkSource& bench,
                             core::SimMode mode, const std::string& label)
{
    SweepPoint p;
    p.label = label.empty() ? benchmarkLabel(bench, mode, machine) : label;
    p.machine = machine;
    p.source = bench.forMode(mode);
    p.mode = mode;
    p.options = core::optionsFor(mode);
    p.verifyBenchmark = bench.name;
    p.benchmarkId = bench.id;
    return add(std::move(p));
}

SweepPoint&
ExperimentPlan::addSource(const std::string& label,
                          const config::MachineConfig& machine,
                          const std::string& source, core::SimMode mode)
{
    SweepPoint p;
    p.label = label;
    p.machine = machine;
    p.source = source;
    p.mode = mode;
    p.options = core::optionsFor(mode);
    return add(std::move(p));
}

ExperimentPlan
ExperimentPlan::filtered(const std::string& substring) const
{
    ExperimentPlan out(_name);
    for (const auto& p : _points)
        if (p.label.find(substring) != std::string::npos)
            out.add(p);
    return out;
}

} // namespace exp
} // namespace procoup
