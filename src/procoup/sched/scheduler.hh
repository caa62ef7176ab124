#ifndef PROCOUP_SCHED_SCHEDULER_HH
#define PROCOUP_SCHED_SCHEDULER_HH

/**
 * @file
 * Static scheduler: turns one optimized IR thread function into the
 * wide-instruction rows of a ThreadCode.
 *
 * Follows the paper's compiler: "Scheduling is done according to
 * critical path analysis of each basic block in which the most
 * critical operations are scheduled first. Operations are placed to
 * minimize the amount of communication between function units." No
 * trace scheduling, no software pipelining, no motion across basic
 * block boundaries.
 *
 * Mechanics per block:
 *  - a dependence DAG over the block's operations (true deps with
 *    producer latency, write-after-read edges for home registers,
 *    conservative memory-ordering edges, FORK/MARK ordering);
 *  - list scheduling by longest-path-to-sink priority;
 *  - placement cost = schedule delay + inter-cluster transfers; a
 *    producer's second destination slot covers one extra consumer
 *    cluster free of charge, further clusters get inserted MOV/FMOV
 *    copy operations;
 *  - virtual registers live across blocks get fixed home registers
 *    (written by their final in-block definition); temporaries get
 *    fresh registers, never reused — the paper's infinite-register
 *    assumption, whose peaks are reported in the diagnostics.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "procoup/config/machine.hh"
#include "procoup/ir/ir.hh"
#include "procoup/isa/program.hh"

namespace procoup {
namespace sched {

/** Cluster assignment for one thread function. */
struct FuncPlacement
{
    /** Arithmetic clusters the function may use, in preference order
     *  (exactly one entry in single-cluster mode). */
    std::vector<int> clusterOrder;

    /** The branch cluster executing all control operations. */
    int branchCluster = 0;
};

/** Per-function scheduling diagnostics (the paper reports schedule
 *  lengths and peak register usage). */
struct FuncScheduleInfo
{
    std::string name;

    /** Rows of each basic block in the emitted schedule. */
    std::vector<int> blockRows;

    /** Total instruction rows. */
    int totalRows = 0;

    /** Static operation count. */
    int totalOps = 0;

    /** Inserted inter-cluster copy operations. */
    int copiesInserted = 0;

    /** Peak registers used per cluster. */
    std::vector<std::uint32_t> regCount;
};

/**
 * Schedule @p func on the machine whose units @p fus describes, with
 * the given placement.
 *
 * @param[out] info optional diagnostics
 * @return the compiled thread code (fork targets still refer to IR
 *         function indices; the driver keeps them 1:1)
 * @throws CompileError if an operation cannot be placed on any
 *         cluster the placement allows
 */
isa::ThreadCode scheduleFunction(const ir::ThreadFunc& func,
                                 const config::FuTable& fus,
                                 const FuncPlacement& placement,
                                 FuncScheduleInfo* info = nullptr);

} // namespace sched
} // namespace procoup

#endif // PROCOUP_SCHED_SCHEDULER_HH
