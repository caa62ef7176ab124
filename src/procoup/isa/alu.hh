#ifndef PROCOUP_ISA_ALU_HH
#define PROCOUP_ISA_ALU_HH

/**
 * @file
 * Functional semantics of the integer and floating point operations,
 * defined once for the simulator and for the compiler's constant
 * folds. Simulation is "at a functional level rather than at a
 * register transfer level" (paper, Section 3): values are computed
 * exactly, and timing is handled by the surrounding pipeline model.
 *
 * Integer arithmetic wraps modulo 2^64, so INT64_MIN / -1 is INT64_MIN
 * and INT64_MIN mod -1 is 0. Only a zero divisor traps. FTOI truncates
 * toward zero, and NaN or a double outside int64 range gives INT64_MIN
 * (isa::truncToInt).
 */

#include <initializer_list>
#include <span>

#include "procoup/isa/opcode.hh"
#include "procoup/isa/value.hh"

namespace procoup {
namespace isa {

/**
 * Evaluate an IU/FPU operation over resolved source values.
 *
 * Taking a span (rather than a concrete container) lets the simulator
 * pass its inline source buffer without copying.
 *
 * @param op     an integer- or float-unit opcode that writes a register
 * @param srcs   source values, in operand order
 * @return the result word
 * @throws SimError on integer division/modulo by zero
 */
Value evalAlu(Opcode op, std::span<const Value> srcs);

/** Braced-list convenience (tests, constant folding). */
inline Value
evalAlu(Opcode op, std::initializer_list<Value> srcs)
{
    return evalAlu(op, std::span<const Value>(srcs.begin(), srcs.size()));
}

} // namespace isa
} // namespace procoup

#endif // PROCOUP_ISA_ALU_HH
