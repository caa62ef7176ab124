#include "procoup/config/validate.hh"

#include <vector>

#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace config {

namespace {

void
fail(const std::string& thread, std::size_t inst, const std::string& what)
{
    throw CompileError(
        strCat("invalid program: thread '", thread, "', instruction ",
               inst, ": ", what));
}

void
checkReg(const isa::Program&, const isa::ThreadCode& t, std::size_t i,
         const MachineConfig& machine, const isa::RegRef& r)
{
    if (r.cluster >= machine.clusters.size())
        fail(t.name, i, strCat("register cluster out of range: ",
                               r.toString()));
    if (r.cluster >= t.regCount.size() || r.index >= t.regCount[r.cluster])
        fail(t.name, i, strCat("register index beyond frame: ",
                               r.toString()));
}

} // namespace

void
validateMachine(const MachineConfig& machine)
{
    const auto bad = [](const std::string& what) {
        throw CompileError(strCat("machine description: ", what));
    };
    if (machine.clusters.empty())
        throw CompileError("machine has no clusters");
    for (const auto& c : machine.clusters) {
        if (c.units.empty())
            bad("cluster with no function units");
        for (const auto& fu : c.units)
            if (fu.latency < 1)
                bad("latency must be at least 1");
    }
    if (machine.branchClusters().empty())
        throw CompileError("machine has no branch unit");
    const MemoryConfig& mem = machine.memory;
    if (mem.hitLatency < 0)
        bad("hit latency must be at least 0");
    if (!(mem.missRate >= 0.0 && mem.missRate <= 1.0))
        bad("miss rate must be within [0, 1]");
    if (mem.missPenaltyMin < 0)
        bad("miss penalty must be at least 0");
    if (mem.missPenaltyMin > mem.missPenaltyMax)
        bad("miss penalty range is inverted");
    const OpCacheConfig& oc = machine.opCache;
    if (oc.enabled && (oc.linesPerUnit < 1 || oc.rowsPerLine < 1 ||
                       oc.missPenalty < 0))
        bad("bad opcache parameters");
    if (machine.deadlockCycleLimit < 1)
        bad("deadlock cycle limit must be at least 1");
}

void
validateProgram(const isa::Program& prog, const MachineConfig& machine)
{
    const FuTable fus(machine);
    const int num_fus = fus.numFus();

    // Row of the last slot seen on each unit (rows numbered across
    // all threads), for the one-operation-per-unit check.
    std::vector<std::size_t> last_row(num_fus, ~std::size_t{0});
    std::size_t row = 0;

    for (const auto& t : prog.threads) {
        if (t.regCount.size() != machine.clusters.size())
            throw CompileError(
                strCat("thread '", t.name, "': regCount has ",
                       t.regCount.size(), " clusters, machine has ",
                       machine.clusters.size()));

        for (const auto& p : t.paramHomes)
            checkReg(prog, t, 0, machine, p);

        for (std::size_t i = 0; i < t.instructions.size(); ++i, ++row) {
            const auto& inst = t.instructions[i];
            for (const auto& slot : inst.slots) {
                if (slot.fu >= num_fus)
                    fail(t.name, i, strCat("no such function unit: fu",
                                           slot.fu));
                if (last_row[slot.fu] == row)
                    fail(t.name, i, strCat("two operations on fu",
                                           slot.fu));
                last_row[slot.fu] = row;

                const auto& op = slot.op;
                if (op.unitType() != fus.type(slot.fu))
                    fail(t.name, i,
                         strCat(isa::opcodeName(op.opcode), " on a ",
                                unitTypeName(fus.type(slot.fu)),
                                " unit"));

                const int cluster = fus.cluster(slot.fu);
                for (const auto& src : op.srcs) {
                    if (src.kind() == isa::Operand::Kind::None)
                        fail(t.name, i, "unset source operand");
                    if (src.isReg()) {
                        checkReg(prog, t, i, machine, src.reg());
                        if (src.reg().cluster != cluster)
                            fail(t.name, i,
                                 strCat("source ", src.reg().toString(),
                                        " not in issuing cluster ",
                                        cluster));
                    }
                }

                const int wanted = isa::opcodeNumSources(op.opcode);
                if (wanted >= 0 &&
                    static_cast<int>(op.srcs.size()) != wanted)
                    fail(t.name, i,
                         strCat(isa::opcodeName(op.opcode), " needs ",
                                wanted, " sources, has ", op.srcs.size()));
                if (op.opcode == isa::Opcode::FORK && op.srcs.size() > 3)
                    fail(t.name, i, "fork with more than 3 arguments");

                if (static_cast<int>(op.dsts.size()) >
                        isa::Operation::maxDests)
                    fail(t.name, i, "too many destinations");
                if (isa::opcodeWritesRegister(op.opcode) &&
                        op.dsts.empty())
                    fail(t.name, i,
                         strCat(isa::opcodeName(op.opcode),
                                " with no destination"));
                if (!isa::opcodeWritesRegister(op.opcode) &&
                        !op.dsts.empty())
                    fail(t.name, i,
                         strCat(isa::opcodeName(op.opcode),
                                " cannot write a register"));
                for (const auto& d : op.dsts)
                    checkReg(prog, t, i, machine, d);

                if (isa::opcodeIsBranch(op.opcode) &&
                        op.branchTarget >= t.instructions.size())
                    fail(t.name, i, strCat("branch target out of range: @",
                                           op.branchTarget));
                if (op.opcode == isa::Opcode::FORK) {
                    if (op.forkTarget >= prog.threads.size())
                        fail(t.name, i, "fork target out of range");
                    const auto& callee = prog.threads[op.forkTarget];
                    if (callee.paramHomes.size() != op.srcs.size())
                        fail(t.name, i,
                             strCat("fork passes ", op.srcs.size(),
                                    " args, '", callee.name, "' takes ",
                                    callee.paramHomes.size()));
                }
            }
        }
    }

    if (prog.entry >= prog.threads.size())
        throw CompileError("entry thread out of range");
    if (!prog.threads.empty() &&
            !prog.threads[prog.entry].paramHomes.empty())
        throw CompileError("entry thread must take no parameters");

    for (const auto& mi : prog.memInits)
        if (mi.addr >= prog.memorySize)
            throw CompileError(
                strCat("memory init beyond data segment: addr ", mi.addr,
                       " >= ", prog.memorySize));
    for (const auto& [name, sym] : prog.symbols)
        if (sym.base + sym.size > prog.memorySize)
            throw CompileError(
                strCat("symbol '", name, "' extends beyond data segment"));
}

} // namespace config
} // namespace procoup
