#ifndef PROCOUP_SIM_THREAD_HH
#define PROCOUP_SIM_THREAD_HH

/**
 * @file
 * Runtime state of one active thread.
 *
 * "Each thread has its own instruction pointer and logical set of
 * registers, but shares the function units and interconnect bandwidth."
 * Issue is in order: an operation of instruction k may issue only after
 * every operation of instruction k-1 has issued, but operations within
 * an instruction may slip relative to each other (paper, Figure 1).
 */

#include <cstdint>
#include <vector>

#include "procoup/isa/program.hh"
#include "procoup/sim/regfile.hh"
#include "procoup/support/error.hh"

namespace procoup {
namespace sim {

/** Lifecycle of a thread context. */
enum class ThreadState
{
    Active,   ///< fetching and issuing operations
    Done,     ///< executed ETHR or ran off the end of its code
};

/** One spawned thread: code binding, registers, and issue window. */
class ThreadContext
{
  public:
    /**
     * @param id          runtime thread id; doubles as the arbitration
     *                    priority (lower id = higher priority, i.e.
     *                    spawn order)
     * @param code        compiled code (owned by the Program)
     * @param spawn_cycle cycle the thread became active
     */
    ThreadContext(int id, const isa::ThreadCode* code,
                  std::uint32_t code_index, std::uint64_t spawn_cycle);

    int id() const { return _id; }
    const isa::ThreadCode& code() const { return *_code; }

    /** Index of the thread function within the Program (operation
     *  caches tag lines by code, shared across instances). */
    std::uint32_t codeIndex() const { return _codeIndex; }
    ThreadState state() const { return _state; }
    std::uint64_t ip() const { return _ip; }
    std::uint64_t spawnCycle() const { return _spawnCycle; }

    /** Cycle of the most recent issue (idle detection for swapping). */
    std::uint64_t lastIssueCycle() const { return _lastIssueCycle; }
    void noteIssue(std::uint64_t cycle) { _lastIssueCycle = cycle; }
    std::uint64_t endCycle() const { return _endCycle; }
    std::uint64_t opsIssued() const { return _opsIssued; }

    RegisterSet& regs() { return _regs; }
    const RegisterSet& regs() const { return _regs; }

    /** The instruction at the current IP. @pre state() == Active */
    const isa::Instruction& currentInstruction() const
    {
        PROCOUP_ASSERT(_state == ThreadState::Active, "thread not active");
        return _code->instructions[_ip];
    }

    /** True if slot @p slot of the current instruction has issued. */
    bool slotIssued(std::size_t slot) const
    {
        PROCOUP_ASSERT(slot < issued.size(), "slot out of range");
        return issued[slot];
    }

    /** Record that slot @p slot issued this cycle. */
    void markIssued(std::size_t slot);

    /** All operations of the current instruction have issued. */
    bool allSlotsIssued() const { return unissued == 0; }

    /** Record a resolved control transfer from the current row. */
    void setBranch(bool taken, std::uint32_t target,
                   std::uint64_t resolve_cycle);

    /** Record a pending ETHR (thread ends at @p resolve_cycle). */
    void setEnd(std::uint64_t resolve_cycle);

    /**
     * End-of-cycle bookkeeping: advance the IP if the issue window is
     * drained and any branch is resolved; retire the thread on ETHR or
     * when running off the end.
     *
     * @return true if the thread retired this cycle
     */
    bool endOfCycle(std::uint64_t cycle);

  private:
    void resetWindow();

    int _id;
    const isa::ThreadCode* _code;
    std::uint32_t _codeIndex = 0;
    RegisterSet _regs;
    ThreadState _state = ThreadState::Active;

    std::uint64_t _ip = 0;
    std::vector<bool> issued;
    std::size_t unissued = 0;

    bool branchPending = false;
    bool branchTaken = false;
    std::uint32_t branchTarget = 0;
    std::uint64_t branchResolveCycle = 0;

    bool endPending = false;
    std::uint64_t endResolveCycle = 0;

    std::uint64_t _spawnCycle;
    std::uint64_t _lastIssueCycle = 0;
    std::uint64_t _endCycle = 0;
    std::uint64_t _opsIssued = 0;
};

} // namespace sim
} // namespace procoup

#endif // PROCOUP_SIM_THREAD_HH
