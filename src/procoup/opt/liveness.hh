#ifndef PROCOUP_OPT_LIVENESS_HH
#define PROCOUP_OPT_LIVENESS_HH

/**
 * @file
 * Live-variable analysis over the IR CFG. The paper's compiler keeps
 * "live variables ... in registers across basic block boundaries";
 * the scheduler uses this analysis to decide which virtual registers
 * need a stable home register.
 */

#include <cstdint>
#include <vector>

#include "procoup/ir/ir.hh"

namespace procoup {
namespace opt {

/** Per-block liveness sets: one bit per vreg, @c words 64-bit words
 *  per block (block b's set starts at word b * words). */
struct Liveness
{
    std::size_t words = 0;
    std::vector<std::uint64_t> liveIn;
    std::vector<std::uint64_t> liveOut;
};

/** Standard backward may-analysis to a fixpoint. */
Liveness computeLiveness(const ir::ThreadFunc& func);

/** Virtual registers live across any block boundary (live-in anywhere,
 *  or live-out of a block other than the one defining them); function
 *  parameters always count. These need stable home registers. */
std::vector<bool> crossBlockRegs(const ir::ThreadFunc& func,
                                 const Liveness& live);

} // namespace opt
} // namespace procoup

#endif // PROCOUP_OPT_LIVENESS_HH
