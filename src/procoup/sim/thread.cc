#include "procoup/sim/thread.hh"

namespace procoup {
namespace sim {

ThreadContext::ThreadContext(int id, const isa::ThreadCode* code,
                             std::uint32_t code_index,
                             std::uint64_t spawn_cycle)
    : _id(id), _code(code), _codeIndex(code_index),
      _regs(code->regCount), _spawnCycle(spawn_cycle)
{
    if (_code->instructions.empty()) {
        _state = ThreadState::Done;
        _endCycle = spawn_cycle;
    } else {
        resetWindow();
    }
}

void
ThreadContext::resetWindow()
{
    const auto& inst = _code->instructions[_ip];
    issued.assign(inst.slots.size(), false);
    unissued = inst.slots.size();
    branchPending = false;
    endPending = false;
}

void
ThreadContext::markIssued(std::size_t slot)
{
    PROCOUP_ASSERT(slot < issued.size(), "slot out of range");
    PROCOUP_ASSERT(!issued[slot], "slot issued twice");
    issued[slot] = true;
    --unissued;
    ++_opsIssued;
}

void
ThreadContext::setBranch(bool taken, std::uint32_t target,
                         std::uint64_t resolve_cycle)
{
    PROCOUP_ASSERT(!branchPending, "two branches in one instruction");
    branchPending = true;
    branchTaken = taken;
    branchTarget = target;
    branchResolveCycle = resolve_cycle;
}

void
ThreadContext::setEnd(std::uint64_t resolve_cycle)
{
    endPending = true;
    endResolveCycle = resolve_cycle;
}

bool
ThreadContext::endOfCycle(std::uint64_t cycle)
{
    if (_state != ThreadState::Active || !allSlotsIssued())
        return false;

    if (endPending) {
        if (cycle < endResolveCycle)
            return false;
        _state = ThreadState::Done;
        _endCycle = cycle;
        return true;
    }

    if (branchPending) {
        if (cycle < branchResolveCycle)
            return false;
        _ip = branchTaken ? branchTarget : _ip + 1;
    } else {
        ++_ip;
    }

    if (_ip >= _code->instructions.size()) {
        _state = ThreadState::Done;
        _endCycle = cycle;
        return true;
    }
    resetWindow();
    return false;
}

} // namespace sim
} // namespace procoup
