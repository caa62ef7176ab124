#ifndef PROCOUP_CONFIG_VALIDATE_HH
#define PROCOUP_CONFIG_VALIDATE_HH

/**
 * @file
 * Static well-formedness checks of a machine description, and of a
 * compiled program against one. Machines are checked wherever they
 * enter from outside (machine files, decoded plan-submit bytes);
 * programs after scheduling and in tests on hand-built programs,
 * where violations indicate compiler bugs or malformed hand assembly.
 * Both throw CompileError.
 */

#include "procoup/config/machine.hh"
#include "procoup/isa/program.hh"

namespace procoup {
namespace config {

/**
 * Check that @p machine can be simulated:
 *  - it has clusters, and every cluster has units;
 *  - every unit's latency is at least 1;
 *  - some cluster has a branch unit;
 *  - the miss rate lies in [0, 1] and the miss-penalty range is
 *    ordered;
 *  - an enabled operation cache has lines, rows per line, and a
 *    non-negative miss penalty.
 *
 * @throws CompileError describing the first violation.
 */
void validateMachine(const MachineConfig& machine);

/**
 * Check that @p prog is executable on @p machine:
 *  - every slot's function unit exists and matches the opcode's class;
 *  - at most one operation per function unit per instruction;
 *  - source registers live in the issuing unit's own cluster;
 *  - destination counts respect Operation::maxDests;
 *  - register indices are within the thread's declared frame sizes;
 *  - branch targets, fork targets, and memory image addresses in range.
 *
 * @throws CompileError describing the first violation.
 */
void validateProgram(const isa::Program& prog, const MachineConfig& machine);

} // namespace config
} // namespace procoup

#endif // PROCOUP_CONFIG_VALIDATE_HH
