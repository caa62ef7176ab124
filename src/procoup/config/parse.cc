#include "procoup/config/parse.hh"

#include <limits>

#include "procoup/config/validate.hh"
#include "procoup/lang/parser.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace config {

using lang::Sexpr;

namespace {

[[noreturn]] void
fail(const Sexpr& at, const std::string& what)
{
    throw CompileError(strCat("machine description: ", what, " (at ",
                              at.loc().toString(), ")"));
}

/** The integer @p at holds; an error unless it fits an int. */
int
intOf(const Sexpr& at)
{
    const std::int64_t v = at.intValue();
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max())
        fail(at, strCat("integer ", v, " is out of range"));
    return static_cast<int>(v);
}

isa::UnitType
unitTypeFromName(const Sexpr& at, const std::string& s)
{
    if (s == "iu" || s == "int")
        return isa::UnitType::Integer;
    if (s == "fpu" || s == "float")
        return isa::UnitType::Float;
    if (s == "mem" || s == "memory")
        return isa::UnitType::Memory;
    if (s == "br" || s == "branch")
        return isa::UnitType::Branch;
    fail(at, strCat("unknown unit type '", s, "'"));
}

InterconnectScheme
schemeFromName(const Sexpr& at, const std::string& s)
{
    if (s == "full")
        return InterconnectScheme::Full;
    if (s == "tri-port")
        return InterconnectScheme::TriPort;
    if (s == "dual-port")
        return InterconnectScheme::DualPort;
    if (s == "single-port")
        return InterconnectScheme::SinglePort;
    if (s == "shared-bus")
        return InterconnectScheme::SharedBus;
    fail(at, strCat("unknown interconnect scheme '", s, "'"));
}

ClusterConfig
parseCluster(const Sexpr& form)
{
    ClusterConfig c;
    for (std::size_t i = 1; i < form.size(); ++i) {
        const Sexpr& u = form.at(i);
        if (!u.isList() || u.size() < 1 || !u.at(0).isSymbol())
            fail(u, "expected (unit-type [latency])");
        FuConfig fu;
        fu.type = unitTypeFromName(u, u.at(0).symbol());
        fu.latency = u.size() > 1 ? intOf(u.at(1)) : 1;
        c.units.push_back(fu);
    }
    return c;
}

void
parseMemory(const Sexpr& form, MemoryConfig& mem)
{
    for (std::size_t i = 1; i < form.size(); ++i) {
        const Sexpr& kw = form.at(i);
        if (!kw.isSymbol())
            fail(kw, "expected a :keyword");
        const std::string& k = kw.symbol();
        if (k == ":hit") {
            mem.hitLatency = intOf(form.at(++i));
        } else if (k == ":miss-rate") {
            mem.missRate = form.at(++i).numberValue();
        } else if (k == ":penalty") {
            mem.missPenaltyMin = intOf(form.at(++i));
            mem.missPenaltyMax = intOf(form.at(++i));
        } else if (k == ":banks") {
            mem.numBanks = intOf(form.at(++i));
        } else if (k == ":seed") {
            mem.seed = static_cast<std::uint64_t>(
                form.at(++i).intValue());
        } else if (k == ":bank-conflicts") {
            mem.modelBankConflicts = true;
        } else {
            fail(kw, strCat("unknown memory option ", k));
        }
    }
}

} // namespace

MachineConfig
parseMachine(const std::string& text)
{
    const auto forms = lang::parse(text);
    if (forms.size() != 1 || !forms[0].isCall("machine"))
        throw CompileError(
            "machine description must be a single (machine ...) form");
    const Sexpr& top = forms[0];

    MachineConfig m;
    std::size_t i = 1;
    if (i < top.size() && top.at(i).isSymbol())
        m.name = top.at(i++).symbol();

    for (; i < top.size(); ++i) {
        const Sexpr& f = top.at(i);
        if (f.isCall("cluster")) {
            m.clusters.push_back(parseCluster(f));
        } else if (f.isCall("interconnect")) {
            m.interconnect = schemeFromName(f, f.at(1).symbol());
        } else if (f.isCall("arbitration")) {
            const std::string& p = f.at(1).symbol();
            if (p == "fixed-priority")
                m.arbitration = ArbitrationPolicy::FixedPriority;
            else if (p == "round-robin")
                m.arbitration = ArbitrationPolicy::RoundRobin;
            else
                fail(f, strCat("unknown arbitration policy '", p, "'"));
        } else if (f.isCall("memory")) {
            parseMemory(f, m.memory);
        } else if (f.isCall("opcache")) {
            m.opCache.enabled = true;
            for (std::size_t k = 1; k < f.size(); ++k) {
                const Sexpr& kw = f.at(k);
                if (!kw.isSymbol())
                    fail(kw, "expected a :keyword");
                const std::string& key = kw.symbol();
                if (key == ":lines")
                    m.opCache.linesPerUnit = intOf(f.at(++k));
                else if (key == ":rows-per-line")
                    m.opCache.rowsPerLine = intOf(f.at(++k));
                else if (key == ":penalty")
                    m.opCache.missPenalty = intOf(f.at(++k));
                else
                    fail(kw, strCat("unknown opcache option ", key));
            }
        } else if (f.isCall("max-active-threads")) {
            m.maxActiveThreads = intOf(f.at(1));
        } else if (f.isCall("swap-out-idle")) {
            m.swapOutIdleCycles = intOf(f.at(1));
        } else {
            fail(f, strCat("unknown machine section ", f.toString()));
        }
    }

    validateMachine(m);
    return m;
}

} // namespace config
} // namespace procoup
