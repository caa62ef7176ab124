#include "procoup/sched/compiler.hh"

#include <algorithm>
#include <array>

#include "procoup/config/validate.hh"
#include "procoup/ir/frontend.hh"
#include "procoup/opt/passes.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace sched {

std::uint32_t
CompileResult::peakRegistersPerCluster() const
{
    std::uint32_t peak = 0;
    for (const auto& fi : funcInfo)
        for (std::uint32_t n : fi.regCount)
            peak = std::max(peak, n);
    return peak;
}

const FuncScheduleInfo&
CompileResult::infoFor(const std::string& name) const
{
    for (const auto& fi : funcInfo)
        if (fi.name == name)
            return fi;
    throw CompileError(strCat("no schedule info for function ", name));
}

namespace {

/** Every operation of @p func needs a unit of its class in a cluster
 *  the placement gives it. @throws CompileError naming the first one
 *  that has none */
void
checkUnitClasses(const ir::ThreadFunc& func, const config::FuTable& fus,
                 const FuncPlacement& placement)
{
    std::array<bool, isa::numUnitTypes> served{};
    served[static_cast<int>(isa::UnitType::Branch)] =
        fus.unitIn(placement.branchCluster, isa::UnitType::Branch) >= 0;
    for (int c : placement.clusterOrder)
        for (auto t : {isa::UnitType::Integer, isa::UnitType::Float,
                       isa::UnitType::Memory})
            if (fus.unitIn(c, t) >= 0)
                served[static_cast<int>(t)] = true;

    for (const auto& b : func.blocks)
        for (const auto& i : b.instrs) {
            const isa::UnitType t = isa::unitTypeOf(i.op);
            if (!served[static_cast<int>(t)])
                throw CompileError(strCat(
                    "function '", func.name, "' needs a unit of class ",
                    isa::unitTypeName(t), " for ", isa::opcodeName(i.op),
                    ", but none of its clusters has one"));
        }
}

} // namespace

CompileResult
compileModule(ir::Module mod, const config::MachineConfig& machine,
              const CompileOptions& opts)
{
    if (opts.runOptimizer)
        opt::optimize(mod);

    const auto arith = machine.arithClusters();
    const auto branch = machine.branchClusters();
    if (arith.empty())
        throw CompileError("machine has no arithmetic clusters");
    if (branch.empty())
        throw CompileError("machine has no branch cluster");

    const config::FuTable fus(machine);

    // Single-cluster threads must land on a cluster that owns every
    // arithmetic unit class the machine provides (the Figure 8 mix
    // machines have clusters with only memory units, which cannot
    // host a whole thread).
    std::vector<int> single_eligible;
    for (int c : arith) {
        bool ok = true;
        for (auto t : {isa::UnitType::Integer, isa::UnitType::Float,
                       isa::UnitType::Memory})
            if (machine.countUnits(t) > 0 && fus.unitIn(c, t) < 0)
                ok = false;
        if (ok)
            single_eligible.push_back(c);
    }
    if (single_eligible.empty()) {
        for (int c : arith)
            if (fus.unitIn(c, isa::UnitType::Integer) >= 0 &&
                    fus.unitIn(c, isa::UnitType::Memory) >= 0)
                single_eligible.push_back(c);
    }
    if (single_eligible.empty())
        single_eligible = arith;

    CompileResult result;
    for (std::size_t fi = 0; fi < mod.funcs.size(); ++fi) {
        const auto& func = mod.funcs[fi];

        FuncPlacement placement;
        placement.branchCluster =
            branch[fi % branch.size()];
        if (opts.mode == ScheduleMode::Single) {
            placement.clusterOrder = {single_eligible[
                func.cloneIndex % single_eligible.size()]};
        } else {
            // Rotate the preference order per clone: the paper's
            // "different orderings for different threads".
            const std::size_t shift =
                static_cast<std::size_t>(func.cloneIndex) %
                arith.size();
            for (std::size_t k = 0; k < arith.size(); ++k)
                placement.clusterOrder.push_back(
                    arith[(k + shift) % arith.size()]);
        }
        checkUnitClasses(func, fus, placement);

        FuncScheduleInfo info;
        result.program.threads.push_back(
            scheduleFunction(func, fus, placement, &info));
        result.funcInfo.push_back(std::move(info));
    }

    result.program.entry = mod.entry;
    result.program.memorySize = std::max<std::uint32_t>(
        mod.memorySize, 1);
    for (const auto& g : mod.globals) {
        result.program.symbols[g.name] =
            isa::Symbol{g.base, g.size};
        if (g.startsEmpty)
            for (std::uint32_t w = 0; w < g.size; ++w)
                result.program.memInits.push_back(
                    isa::MemInit{g.base + w, isa::Value::makeInt(0),
                                 false});
        for (const auto& [off, v] : g.inits)
            result.program.memInits.push_back(
                isa::MemInit{g.base + off, v, !g.startsEmpty});
    }

    config::validateProgram(result.program, machine);
    return result;
}

CompileResult
compile(const std::string& source, const config::MachineConfig& machine,
        const CompileOptions& opts)
{
    ir::FrontendOptions fopts;
    fopts.forkClones = opts.forkClones > 0
        ? opts.forkClones
        : static_cast<int>(machine.arithClusters().size());
    ir::Module mod = ir::buildModule(source, fopts);
    return compileModule(std::move(mod), machine, opts);
}

} // namespace sched
} // namespace procoup
