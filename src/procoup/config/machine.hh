#ifndef PROCOUP_CONFIG_MACHINE_HH
#define PROCOUP_CONFIG_MACHINE_HH

/**
 * @file
 * Machine description.
 *
 * Mirrors the paper's configuration files: "the number and type of
 * function units, each function unit's pipeline latency, and the
 * grouping of function units into clusters", plus the interconnection
 * scheme (Section 4, Restricting Communication) and the statistical
 * memory model (hit latency, miss rate, and a miss-penalty range).
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "procoup/isa/opcode.hh"

namespace procoup {
namespace config {

/** One function unit: its class and pipeline depth in cycles. */
struct FuConfig
{
    isa::UnitType type = isa::UnitType::Integer;
    int latency = 1;
};

/** A cluster: function units sharing one register file. */
struct ClusterConfig
{
    std::vector<FuConfig> units;

    bool hasUnit(isa::UnitType t) const;
};

/**
 * Runtime thread-arbitration policy of the function units. The paper
 * grants units by a fixed thread priority (Table 3 shows the
 * priority-dependent dilation); round-robin is the fairness extension
 * explored in `bench/ablate_arbitration`.
 */
enum class ArbitrationPolicy
{
    FixedPriority,  ///< lower thread id (earlier spawn) always wins
    RoundRobin,     ///< units rotate among ready threads
};

std::string arbitrationPolicyName(ArbitrationPolicy p);

/** The five communication configurations of Figure 6. */
enum class InterconnectScheme
{
    Full,       ///< unrestricted buses and write ports
    TriPort,    ///< 1 local + 2 global write ports per register file
    DualPort,   ///< 1 local + 1 global write port per register file
    SinglePort, ///< 1 write port per register file, shared local/remote
    SharedBus,  ///< 1 local port per file + one global bus machine-wide
};

std::string interconnectSchemeName(InterconnectScheme s);

/**
 * Per-unit operation caches (Section 2). The paper's evaluation
 * assumes no misses; enable this model to include them.
 */
struct OpCacheConfig
{
    bool enabled = false;   ///< paper default: perfect op caches

    /** Direct-mapped lines per function unit. */
    int linesPerUnit = 64;

    /** Instruction rows covered by one line. */
    int rowsPerLine = 4;

    /** Cycles from miss to line arrival. */
    int missPenalty = 8;
};

/** Statistical memory model (Section 3: "modeled statistically"). */
struct MemoryConfig
{
    /** Cycles for a hit (paper baseline: 1). */
    int hitLatency = 1;

    /** Probability a reference misses the on-chip cache. */
    double missRate = 0.0;

    /** Miss penalty is uniform in [missPenaltyMin, missPenaltyMax]. */
    int missPenaltyMin = 20;
    int missPenaltyMax = 100;

    /** Number of interleaved banks (conflicts off by default, as in the
     *  paper: "no bank conflicts are modeled"). */
    int numBanks = 4;
    bool modelBankConflicts = false;

    /** RNG seed for the miss process (deterministic reproduction). */
    std::uint64_t seed = 1;
};

/** A complete processor-coupled node description. */
struct MachineConfig
{
    std::string name = "machine";

    std::vector<ClusterConfig> clusters;
    InterconnectScheme interconnect = InterconnectScheme::Full;
    ArbitrationPolicy arbitration = ArbitrationPolicy::FixedPriority;
    MemoryConfig memory;
    OpCacheConfig opCache;

    /** 0 = unlimited (the paper assumes "all executing threads are
     *  assumed to be a part of the active set"). */
    int maxActiveThreads = 0;

    /**
     * Thread swapping ("If a thread in the active set idles, it may
     * be swapped out in favor of another thread waiting to execute"):
     * a resident thread that issues nothing for this many cycles
     * while others wait for a slot is suspended and requeued. 0
     * disables swapping (excess spawns then only enter on
     * retirement). Only meaningful with maxActiveThreads > 0.
     */
    int swapOutIdleCycles = 0;

    /** Simulator aborts and reports deadlock if no forward progress is
     *  made for this many consecutive cycles. */
    int deadlockCycleLimit = 200000;

    // --- Flattened function-unit enumeration -----------------------

    /** Total number of function units across all clusters. */
    int numFus() const;

    /** Cluster index owning global function unit @p fu. */
    int fuCluster(int fu) const;

    /** Configuration of global function unit @p fu. */
    const FuConfig& fuConfig(int fu) const;

    /** Global indices of all units of type @p t. */
    std::vector<int> fusOfType(isa::UnitType t) const;

    /** Clusters containing at least one non-branch unit. */
    std::vector<int> arithClusters() const;

    /** Clusters containing a branch unit. */
    std::vector<int> branchClusters() const;

    /** Count of units of type @p t. */
    int countUnits(isa::UnitType t) const;

    std::string toString() const;

    /**
     * Canonical one-line encoding of the complete configuration
     * (clusters, interconnect, arbitration, memory model, operation
     * caches, thread management). Two configs with equal fingerprints
     * simulate identically; the name is deliberately excluded.
     */
    std::string fingerprint() const;

    /**
     * Encoding of only the fields sched::compile() reads — today the
     * cluster/unit/latency structure. Configs with equal compile
     * fingerprints produce identical compilations for the same source
     * and options, so exp::CompileCache keys on this: sweeps over
     * interconnect, memory model, arbitration, or thread-management
     * knobs share one compile per (source, options) pair. Must be
     * extended if the compiler ever starts depending on more of the
     * machine description.
     */
    std::string compileFingerprint() const;
};

/**
 * Flat function-unit lookups for one MachineConfig: each unit's
 * cluster and type, the lowest-index unit of each type in each
 * cluster, and the longest pipeline of each type. Built once (per
 * compile, per validated program) and then only queried; it keeps no
 * reference to the config.
 */
class FuTable
{
  public:
    explicit FuTable(const MachineConfig& m);

    int numFus() const { return static_cast<int>(_units.size()); }
    int numClusters() const { return _numClusters; }

    int cluster(int fu) const { return _units[fu].cluster; }
    isa::UnitType type(int fu) const { return _units[fu].type; }

    /** Lowest-index unit of type @p t in cluster @p c, or -1. */
    int
    unitIn(int c, isa::UnitType t) const
    {
        return _first[c * isa::numUnitTypes + static_cast<int>(t)];
    }

    /** Longest pipeline among units of type @p t; 1 if there are none. */
    int
    maxLatency(isa::UnitType t) const
    {
        return _maxLatency[static_cast<int>(t)];
    }

  private:
    struct Unit
    {
        int cluster = 0;
        isa::UnitType type = isa::UnitType::Integer;
    };

    int _numClusters = 0;
    std::vector<Unit> _units;
    std::vector<int> _first;  ///< [cluster * numUnitTypes + type]
    std::array<int, isa::numUnitTypes> _maxLatency{};
};

} // namespace config
} // namespace procoup

#endif // PROCOUP_CONFIG_MACHINE_HH
