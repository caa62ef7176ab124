#include "procoup/config/machine.hh"

#include <algorithm>

#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace config {

bool
ClusterConfig::hasUnit(isa::UnitType t) const
{
    for (const auto& u : units)
        if (u.type == t)
            return true;
    return false;
}

std::string
arbitrationPolicyName(ArbitrationPolicy p)
{
    switch (p) {
      case ArbitrationPolicy::FixedPriority: return "fixed-priority";
      case ArbitrationPolicy::RoundRobin:    return "round-robin";
    }
    PROCOUP_PANIC("bad ArbitrationPolicy");
}

std::string
interconnectSchemeName(InterconnectScheme s)
{
    switch (s) {
      case InterconnectScheme::Full:       return "Full";
      case InterconnectScheme::TriPort:    return "Tri-Port";
      case InterconnectScheme::DualPort:   return "Dual-Port";
      case InterconnectScheme::SinglePort: return "Single-Port";
      case InterconnectScheme::SharedBus:  return "Shared-Bus";
    }
    PROCOUP_PANIC("bad InterconnectScheme");
}

int
MachineConfig::numFus() const
{
    int n = 0;
    for (const auto& c : clusters)
        n += static_cast<int>(c.units.size());
    return n;
}

int
MachineConfig::fuCluster(int fu) const
{
    int base = 0;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        const int n = static_cast<int>(clusters[c].units.size());
        if (fu < base + n)
            return static_cast<int>(c);
        base += n;
    }
    PROCOUP_PANIC(strCat("function unit index out of range: ", fu));
}

const FuConfig&
MachineConfig::fuConfig(int fu) const
{
    int base = 0;
    for (const auto& c : clusters) {
        const int n = static_cast<int>(c.units.size());
        if (fu < base + n)
            return c.units[fu - base];
        base += n;
    }
    PROCOUP_PANIC(strCat("function unit index out of range: ", fu));
}

std::vector<int>
MachineConfig::fusOfType(isa::UnitType t) const
{
    std::vector<int> out;
    int fu = 0;
    for (const auto& c : clusters)
        for (const auto& u : c.units) {
            if (u.type == t)
                out.push_back(fu);
            ++fu;
        }
    return out;
}

std::vector<int>
MachineConfig::arithClusters() const
{
    std::vector<int> out;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        bool arith = false;
        for (const auto& u : clusters[c].units)
            if (u.type != isa::UnitType::Branch)
                arith = true;
        if (arith)
            out.push_back(static_cast<int>(c));
    }
    return out;
}

std::vector<int>
MachineConfig::branchClusters() const
{
    std::vector<int> out;
    for (std::size_t c = 0; c < clusters.size(); ++c)
        if (clusters[c].hasUnit(isa::UnitType::Branch))
            out.push_back(static_cast<int>(c));
    return out;
}

int
MachineConfig::countUnits(isa::UnitType t) const
{
    return static_cast<int>(fusOfType(t).size());
}

std::string
MachineConfig::compileFingerprint() const
{
    // Every machine field sched::compile() consults. The compiler
    // schedules against the cluster/unit/latency structure only; see
    // the header contract before adding fields here.
    std::string s = "clusters[";
    for (const auto& c : clusters) {
        s += "(";
        for (const auto& u : c.units)
            s += strCat(unitTypeName(u.type), ":", u.latency, ",");
        s += ")";
    }
    s += "]";
    return s;
}

std::string
MachineConfig::fingerprint() const
{
    return strCat(
        compileFingerprint(), "|ic=",
        interconnectSchemeName(interconnect), "|arb=",
        arbitrationPolicyName(arbitration), "|mem=",
        memory.hitLatency, ",", memory.missRate, ",",
        memory.missPenaltyMin, ",", memory.missPenaltyMax, ",",
        memory.numBanks, ",", memory.modelBankConflicts, ",",
        memory.seed, "|oc=", opCache.enabled, ",",
        opCache.linesPerUnit, ",", opCache.rowsPerLine, ",",
        opCache.missPenalty, "|act=", maxActiveThreads, ",",
        swapOutIdleCycles, "|ddl=", deadlockCycleLimit);
}

std::string
MachineConfig::toString() const
{
    std::string s = strCat("machine ", name, " (",
                           interconnectSchemeName(interconnect), ")\n");
    int fu = 0;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        s += strCat("  cluster ", c, ":");
        for (const auto& u : clusters[c].units) {
            s += strCat(" fu", fu, "=", unitTypeName(u.type),
                        "(lat ", u.latency, ")");
            ++fu;
        }
        s += "\n";
    }
    s += strCat("  memory: hit ", memory.hitLatency, " cyc, miss rate ",
                memory.missRate, ", penalty [", memory.missPenaltyMin,
                ", ", memory.missPenaltyMax, "]\n");
    return s;
}

FuTable::FuTable(const MachineConfig& m)
    : _numClusters(static_cast<int>(m.clusters.size())),
      _first(m.clusters.size() * isa::numUnitTypes, -1)
{
    _maxLatency.fill(1);
    for (int c = 0; c < _numClusters; ++c)
        for (const auto& u : m.clusters[c].units) {
            const int t = static_cast<int>(u.type);
            int& first = _first[c * isa::numUnitTypes + t];
            if (first < 0)
                first = numFus();
            _maxLatency[t] = std::max(_maxLatency[t], u.latency);
            _units.push_back(Unit{c, u.type});
        }
}

} // namespace config
} // namespace procoup
