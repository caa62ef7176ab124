#include "procoup/sched/scheduler.hh"

#include <algorithm>
#include <bit>
#include <functional>

#include "procoup/opt/liveness.hh"
#include "procoup/support/error.hh"
#include "procoup/support/inline_vector.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace sched {

using ir::IrInstr;
using ir::Type;
using isa::Opcode;

namespace {

constexpr int kInfeasible = 1 << 29;

/** Identifies a value: a block-local definition (node id) or a
 *  cross-block import (slot in the block's import table, read through
 *  the vreg's home register). */
struct ValueKey
{
    bool isImport = false;
    int index = -1;

    bool operator==(const ValueKey&) const = default;

    static ValueKey ofImport(int slot) { return {true, slot}; }
    static ValueKey ofDef(int node) { return {false, node}; }
};

/** Where a value can be read: register and availability row. */
struct Location
{
    static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

    std::uint32_t reg = kAbsent;
    int readyRow = 0;

    bool present() const { return reg != kAbsent; }
};

/** One inserted inter-cluster copy (a MOV on the source cluster's
 *  integer unit — the paper's observation that moving data costs IU
 *  operations). */
struct CopyOp
{
    int row = 0;
    int fu = 0;
    int srcCluster = 0;
    std::uint32_t srcReg = 0;
    int dstCluster = 0;
    std::uint32_t dstReg = 0;
};

/** A source operand: a constant (read from the IR instruction) or a
 *  value resolved against reaching definitions. */
struct NodeSrc
{
    bool isConst = false;
    ValueKey value;
};

/** A dependence edge; the scheduler keeps them in flat arrays. */
struct Edge
{
    int from = 0;
    int to = 0;
    int lat = 0;
};

/** One schedulable operation. */
struct Node
{
    /** The IR instruction, or null for a lead copy (a MOV of dst). */
    const IrInstr* instr = nullptr;
    Opcode op = Opcode::NOP;
    std::uint32_t dst = ir::kNoReg;
    support::InlineVec<NodeSrc, 3> srcs;

    /** Predecessor edges [predBegin, predEnd) and successor edges
     *  [succBegin, succEnd) in the block's edge arrays. */
    int predBegin = 0;
    int predEnd = 0;
    int succBegin = 0;
    int succEnd = 0;
    int predsLeft = 0;
    int height = 0;

    /** The final in-block definition of a cross-block register: must
     *  write the home register. */
    bool writesHome = false;

    // Schedule results.
    int cluster = -1;
    int fu = -1;
    int row = -1;

    /** Assigned destinations: (cluster, reg), at most maxDests. */
    support::InlineVec<std::pair<int, std::uint32_t>,
                       isa::Operation::maxDests> dests;
};

/** Per-function context: home registers and register allocation. */
class FunctionScheduler
{
  public:
    FunctionScheduler(const ir::ThreadFunc& func,
                      const config::FuTable& fus,
                      const FuncPlacement& placement)
        : func(func), fus(fus), placement(placement),
          home(func.regTypes.size(), {-1, 0}),
          regCounter(fus.numClusters(), 0)
    {
        PROCOUP_ASSERT(!placement.clusterOrder.empty(),
                       "function with no allowed clusters");
        assignHomes();
    }

    int
    latencyOf(Opcode op) const
    {
        return fus.maxLatency(isa::unitTypeOf(op));
    }

    std::uint32_t
    newTemp(int cluster)
    {
        return regCounter[cluster]++;
    }

    /** Home (cluster, register) of cross-block vreg @p v. */
    const std::pair<int, std::uint32_t>&
    homeOf(std::uint32_t v) const
    {
        PROCOUP_ASSERT(home[v].first >= 0, "cross-block value has no home");
        return home[v];
    }

    const ir::ThreadFunc& func;
    const config::FuTable& fus;
    const FuncPlacement& placement;

    std::vector<bool> cross;
    /** Per vreg; cluster -1 when the vreg has no home. */
    std::vector<std::pair<int, std::uint32_t>> home;
    std::vector<std::uint32_t> regCounter;
    int copiesInserted = 0;

  private:
    void
    assignHomes()
    {
        const auto live = opt::computeLiveness(func);
        cross = opt::crossBlockRegs(func, live);

        // Home registers live only in clusters that own an integer
        // unit: transfers out of a cluster execute as MOVs on its IU,
        // so a home in a mover-less cluster (possible in the Figure 8
        // unit-mix machines) could strand the value.
        std::vector<int> home_clusters;
        for (int c : placement.clusterOrder)
            if (fus.unitIn(c, isa::UnitType::Integer) >= 0)
                home_clusters.push_back(c);
        if (home_clusters.empty())
            home_clusters = placement.clusterOrder;

        // Parameters first (their homes are the FORK landing pads),
        // then remaining cross-block registers; clusters round-robin
        // over the preference order.
        std::size_t rr = 0;
        auto place = [&](std::uint32_t v) {
            if (home[v].first >= 0)
                return;
            const int c = home_clusters[rr++ % home_clusters.size()];
            home[v] = {c, regCounter[c]++};
        };
        for (std::uint32_t p : func.params)
            place(p);
        for (std::uint32_t v = 0; v < func.regTypes.size(); ++v)
            if (cross[v])
                place(v);
    }
};

/**
 * Schedules and emits the basic blocks of one function. Its scratch
 * (per-vreg tables, edge arrays, unit row bitmaps, value locations)
 * is allocated once per function and reset between blocks.
 */
class BlockScheduler
{
  public:
    explicit BlockScheduler(FunctionScheduler& fs)
        : fs(fs), numClusters(fs.fus.numClusters()),
          vregs(fs.func.regTypes.size()), busy(fs.fus.numFus())
    {}

    std::vector<isa::Instruction>
    run(const ir::BasicBlock& block)
    {
        reset();
        buildNodes(block);
        computeHeights();
        scheduleAll();
        return emit();
    }

  private:
    struct Candidate
    {
        int cluster = -1;
        int fu = -1;
        int row = -1;
        int cost = kInfeasible;

        struct MovPlan
        {
            std::size_t srcIndex = 0;
            int srcCluster = 0;
            std::uint32_t srcReg = 0;
            int movRow = 0;
            int movFu = 0;
        };
        support::InlineVec<MovPlan, 3> movs;

        /** Source indices satisfied by adding a producer dest slot. */
        support::InlineVec<std::size_t, 3> destAdds;
    };

    /** What the current block does with one vreg. */
    struct VregState
    {
        bool touched = false;  ///< listed in blockRegs
        bool defined = false;
        bool imported = false;   ///< read before any write
        bool redefined = false;  ///< imported, then written
        int defNode = -1;        ///< final definition so far
        int leadCopy = -1;
        int importSlot = -1;
    };

    void reset();
    void buildNodes(const ir::BasicBlock& block);
    void addEdge(int from, int to, int lat);
    void linkEdges();
    void computeHeights();
    void scheduleAll();
    void scheduleNode(int n);
    Candidate evaluate(int n, int cluster);
    void commit(int n, const Candidate& cand);
    int firstFreeRow(int fu, int from) const;
    void markBusy(int fu, int row);
    Location* locationsOf(const ValueKey& key);
    std::vector<isa::Instruction> emit();

    FunctionScheduler& fs;
    const int numClusters;

    std::vector<VregState> vregs;
    std::vector<std::uint32_t> blockRegs;  ///< vregs touched by the block

    std::vector<Node> nodes;
    int termNode = -1;
    std::vector<std::uint32_t> importVreg;  ///< by import slot
    std::vector<Edge> edges;                ///< preds, sorted by (to, from)
    std::vector<std::pair<int, int>> succs; ///< (node, latency)
    std::vector<int> memNodes;
    std::vector<int> storeLike;

    /** Locations of each value, numClusters entries per value, in
     *  cluster order. */
    std::vector<Location> defLocs;
    std::vector<Location> importLocs;

    /** Per unit, one bit per occupied row. */
    std::vector<std::vector<std::uint64_t>> busy;
    std::vector<CopyOp> copies;
    int maxRow = -1;

    std::vector<std::pair<int, int>> ready;  ///< heap of (-height, id)
    std::vector<int> rowIndex;               ///< row -> emitted row
};

void
BlockScheduler::reset()
{
    for (std::uint32_t v : blockRegs)
        vregs[v] = VregState{};
    blockRegs.clear();
    nodes.clear();
    termNode = -1;
    importVreg.clear();
    edges.clear();
    memNodes.clear();
    storeLike.clear();
    for (auto& rows : busy)
        rows.clear();
    copies.clear();
    maxRow = -1;
}

// ===================================================================
// DAG construction
// ===================================================================

void
BlockScheduler::addEdge(int from, int to, int lat)
{
    PROCOUP_ASSERT(from != to, "self edge in dependence DAG");
    edges.push_back(Edge{from, to, lat});
}

void
BlockScheduler::buildNodes(const ir::BasicBlock& block)
{
    // Which vregs does the block import (read before writing) and
    // also redefine? Those get renamed through a lead copy so a late
    // transfer can never read the redefined home register by mistake.
    std::vector<std::uint32_t> redefined_imports;
    auto touch = [&](std::uint32_t v) -> VregState& {
        if (!vregs[v].touched) {
            vregs[v].touched = true;
            blockRegs.push_back(v);
        }
        return vregs[v];
    };
    for (const auto& i : block.instrs) {
        for (const auto& s : i.srcs)
            if (s.isReg() && !vregs[s.reg()].defined)
                touch(s.reg()).imported = true;
        if (i.dst != ir::kNoReg) {
            VregState& d = touch(i.dst);
            d.defined = true;
            if (d.imported && !d.redefined) {
                d.redefined = true;
                redefined_imports.push_back(i.dst);
            }
        }
    }
    std::sort(redefined_imports.begin(), redefined_imports.end());

    auto import_of = [&](std::uint32_t v) {
        int& slot = vregs[v].importSlot;
        if (slot < 0) {
            slot = static_cast<int>(importVreg.size());
            importVreg.push_back(v);
        }
        return ValueKey::ofImport(slot);
    };

    for (std::uint32_t v : redefined_imports) {
        PROCOUP_ASSERT(fs.home[v].first >= 0,
                       "redefined import has no home");
        Node n;
        n.op = Opcode::MOV;
        n.dst = v;  // for type lookup; registers assigned later
        n.srcs.push_back(NodeSrc{false, import_of(v)});
        nodes.push_back(std::move(n));
        vregs[v].leadCopy = static_cast<int>(nodes.size()) - 1;
    }

    int last_fence = -1;

    // Two plain references may alias unless they touch different
    // symbols or provably different constant offsets of one symbol.
    auto may_alias = [](const IrInstr& a, const IrInstr& b) {
        if (!a.isMemory() || !b.isMemory())
            return true;  // fences order against everything
        if (a.memSym.empty() || b.memSym.empty())
            return true;
        if (a.memSym != b.memSym)
            return false;
        const auto& ao = a.srcs[1];
        const auto& bo = b.srcs[1];
        if (ao.isConst() && bo.isConst())
            return ao.constant().asInt() == bo.constant().asInt();
        return true;
    };

    for (const auto& i : block.instrs) {
        Node n;
        n.instr = &i;
        n.op = i.op;
        n.dst = i.dst;
        for (const auto& s : i.srcs) {
            NodeSrc src;
            if (s.isConst()) {
                src.isConst = true;
            } else if (vregs[s.reg()].defNode >= 0) {
                src.value = ValueKey::ofDef(vregs[s.reg()].defNode);
            } else if (vregs[s.reg()].leadCopy >= 0) {
                src.value = ValueKey::ofDef(vregs[s.reg()].leadCopy);
            } else {
                src.value = import_of(s.reg());
            }
            n.srcs.push_back(src);
        }
        nodes.push_back(std::move(n));
        const int id = static_cast<int>(nodes.size()) - 1;
        const Node& node = nodes[id];

        // True dependences carry the producer's pipeline latency.
        for (const auto& src : node.srcs)
            if (!src.isConst && !src.value.isImport)
                addEdge(src.value.index, id,
                        fs.latencyOf(nodes[src.value.index].op));

        // Conservative memory / fence ordering (strict row order so
        // same-address accesses issue in program order).
        const bool is_mem = i.isMemory();
        const bool fence = i.isSyncMemory() || i.op == Opcode::FORK ||
                           i.op == Opcode::MARK;
        if (is_mem || i.op == Opcode::FORK || i.op == Opcode::MARK) {
            if (fence) {
                for (int m : memNodes)
                    addEdge(m, id, 1);
            } else if (i.op == Opcode::LD) {
                for (int s : storeLike)
                    if (may_alias(*nodes[s].instr, i))
                        addEdge(s, id, 1);
            } else {  // plain ST: after all aliasing memory refs
                for (int m : memNodes)
                    if (may_alias(*nodes[m].instr, i))
                        addEdge(m, id, 1);
            }
            if (last_fence >= 0)
                addEdge(last_fence, id, 1);

            memNodes.push_back(id);
            if (i.op != Opcode::LD)
                storeLike.push_back(id);
            if (fence)
                last_fence = id;
        }

        if (i.dst != ir::kNoReg)
            vregs[i.dst].defNode = id;

        if (i.isTerminator()) {
            PROCOUP_ASSERT(termNode == -1, "two terminators in block");
            termNode = id;
        }
    }

    // The final in-block definition of a cross-block register writes
    // its home, so it may not precede any reader of the imported value
    // (write-after-read).
    for (std::uint32_t v : blockRegs)
        if (vregs[v].defNode >= 0 && fs.cross[v])
            nodes[vregs[v].defNode].writesHome = true;
    for (std::size_t id = 0; id < nodes.size(); ++id)
        for (const auto& src : nodes[id].srcs) {
            if (src.isConst || !src.value.isImport)
                continue;
            const std::uint32_t v = importVreg[src.value.index];
            const int def = vregs[v].defNode;
            if (def >= 0 && fs.cross[v] && def != static_cast<int>(id))
                addEdge(static_cast<int>(id), def, 0);
        }

    linkEdges();

    // Every value's locations; an import starts in its home register.
    defLocs.assign(nodes.size() * numClusters, Location{});
    importLocs.assign(importVreg.size() * numClusters, Location{});
    for (std::size_t slot = 0; slot < importVreg.size(); ++slot) {
        const auto& [cluster, reg] = fs.homeOf(importVreg[slot]);
        importLocs[slot * numClusters + cluster] = Location{reg, 0};
    }
}

void
BlockScheduler::linkEdges()
{
    // Deduplicate edges (keep max latency), grouped by consumer.
    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) {
                  if (a.to != b.to)
                      return a.to < b.to;
                  if (a.from != b.from)
                      return a.from < b.from;
                  return a.lat > b.lat;
              });
    std::size_t kept = 0;
    for (std::size_t e = 0; e < edges.size(); ++e)
        if (kept == 0 || edges[kept - 1].to != edges[e].to ||
                edges[kept - 1].from != edges[e].from)
            edges[kept++] = edges[e];
    edges.resize(kept);

    // Predecessor spans, then successor spans (ascending consumer id
    // within each producer).
    std::vector<int> succ_count(nodes.size() + 1, 0);
    for (std::size_t e = 0; e < edges.size(); ++e) {
        Node& to = nodes[edges[e].to];
        if (to.predEnd == 0)
            to.predBegin = static_cast<int>(e);
        to.predEnd = static_cast<int>(e) + 1;
        ++to.predsLeft;
        ++succ_count[edges[e].from + 1];
    }
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        succ_count[n + 1] += succ_count[n];
        nodes[n].succBegin = nodes[n].succEnd = succ_count[n];
    }
    succs.resize(edges.size());
    for (const Edge& e : edges)
        succs[nodes[e.from].succEnd++] = {e.to, e.lat};
}

void
BlockScheduler::computeHeights()
{
    // All edges point from earlier to later nodes; process in reverse.
    for (int id = static_cast<int>(nodes.size()) - 1; id >= 0; --id) {
        Node& node = nodes[id];
        int h = fs.latencyOf(node.op);
        for (int k = node.succBegin; k < node.succEnd; ++k)
            h = std::max(h, nodes[succs[k].first].height + succs[k].second);
        node.height = h;
    }
}

// ===================================================================
// List scheduling
// ===================================================================

int
BlockScheduler::firstFreeRow(int fu, int from) const
{
    const auto& rows = busy[fu];
    for (int r = from;;) {
        const std::size_t w = static_cast<std::size_t>(r) / 64;
        if (w >= rows.size())
            return r;
        const std::uint64_t free = ~rows[w] >> (r % 64);
        if (free != 0)
            return r + std::countr_zero(free);
        r = static_cast<int>(w + 1) * 64;
    }
}

void
BlockScheduler::markBusy(int fu, int row)
{
    auto& rows = busy[fu];
    const std::size_t w = static_cast<std::size_t>(row) / 64;
    if (w >= rows.size())
        rows.resize(w + 1, 0);
    rows[w] |= std::uint64_t{1} << (row % 64);
    maxRow = std::max(maxRow, row);
}

Location*
BlockScheduler::locationsOf(const ValueKey& key)
{
    auto& locs = key.isImport ? importLocs : defLocs;
    return &locs[static_cast<std::size_t>(key.index) * numClusters];
}

BlockScheduler::Candidate
BlockScheduler::evaluate(int n, int cluster)
{
    Candidate cand;
    const Node& node = nodes[n];
    const int fu = fs.fus.unitIn(cluster, isa::unitTypeOf(node.op));
    if (fu < 0)
        return cand;

    int earliest = 0;
    for (int k = node.predBegin; k < node.predEnd; ++k) {
        const Node& pred = nodes[edges[k].from];
        PROCOUP_ASSERT(pred.row >= 0, "predecessor not scheduled");
        earliest = std::max(earliest, pred.row + edges[k].lat);
    }

    // Unit rows claimed by this candidate's own planned copies, so two
    // copies in one candidate never share a unit-row.
    support::InlineVec<std::pair<int, int>, 3> claimed;
    auto first_free = [&](int f, int from) {
        int r = firstFreeRow(f, from);
        auto taken = [&] {
            return std::find(claimed.begin(), claimed.end(),
                             std::pair<int, int>{f, r}) != claimed.end();
        };
        while (taken())
            r = firstFreeRow(f, r + 1);
        return r;
    };

    int cost = 0;
    support::InlineVec<std::pair<ValueKey, int>, 3> planned;  ///< ready row
    support::InlineVec<std::pair<int, int>, 3> planned_dests; ///< slots
    for (std::size_t si = 0; si < node.srcs.size(); ++si) {
        const NodeSrc& src = node.srcs[si];
        if (src.isConst)
            continue;

        // The same value read twice uses one transfer/register.
        auto seen = std::find_if(planned.begin(), planned.end(),
                                 [&](const auto& p) {
                                     return p.first == src.value;
                                 });
        if (seen != planned.end()) {
            earliest = std::max(earliest, seen->second);
            continue;
        }

        const Location* locs = locationsOf(src.value);
        if (locs[cluster].present()) {
            earliest = std::max(earliest, locs[cluster].readyRow);
            continue;
        }

        // A producer with a free destination slot broadcasts here at
        // no schedule cost ("an operation can specify at most two
        // simultaneous register destinations").
        if (!src.value.isImport) {
            const int def = src.value.index;
            const Node& prod = nodes[def];
            auto claims = std::find_if(
                planned_dests.begin(), planned_dests.end(),
                [&](const auto& p) { return p.first == def; });
            const int claimed_slots =
                claims != planned_dests.end() ? claims->second : 0;
            const int free_slots = isa::Operation::maxDests -
                static_cast<int>(prod.dests.size()) - claimed_slots;
            if (free_slots > 0) {
                cand.destAdds.push_back(si);
                if (claims != planned_dests.end())
                    ++claims->second;
                else
                    planned_dests.push_back({def, 1});
                const int ready = prod.row + fs.latencyOf(prod.op);
                planned.push_back({src.value, ready});
                earliest = std::max(earliest, ready);
                cost += 2;
                continue;
            }
        }

        // Otherwise insert a copy: a MOV on the integer unit of a
        // cluster already holding the value.
        int best_row = kInfeasible;
        Candidate::MovPlan plan;
        for (int loc_cluster = 0; loc_cluster < numClusters;
             ++loc_cluster) {
            const Location& loc = locs[loc_cluster];
            if (!loc.present())
                continue;
            const int mov_fu =
                fs.fus.unitIn(loc_cluster, isa::UnitType::Integer);
            if (mov_fu < 0)
                continue;
            const int row = first_free(mov_fu, loc.readyRow);
            if (row < best_row) {
                best_row = row;
                plan.srcIndex = si;
                plan.srcCluster = loc_cluster;
                plan.srcReg = loc.reg;
                plan.movRow = row;
                plan.movFu = mov_fu;
            }
        }
        if (best_row >= kInfeasible)
            return cand;  // operand cannot be sourced here
        cand.movs.push_back(plan);
        claimed.push_back({plan.movFu, plan.movRow});
        const int ready =
            best_row + fs.fus.maxLatency(isa::UnitType::Integer);
        planned.push_back({src.value, ready});
        earliest = std::max(earliest, ready);
        cost += 6;
    }

    cand.cluster = cluster;
    cand.fu = fu;
    cand.row = firstFreeRow(fu, earliest);
    cand.cost = cand.row * 16 + cost;
    return cand;
}

void
BlockScheduler::commit(int n, const Candidate& cand)
{
    Node& node = nodes[n];
    node.cluster = cand.cluster;
    node.fu = cand.fu;
    node.row = cand.row;
    markBusy(cand.fu, cand.row);

    for (std::size_t si : cand.destAdds) {
        const ValueKey& key = node.srcs[si].value;
        Node& prod = nodes[key.index];
        const std::uint32_t reg = fs.newTemp(cand.cluster);
        prod.dests.emplace_back(cand.cluster, reg);
        locationsOf(key)[cand.cluster] =
            Location{reg, prod.row + fs.latencyOf(prod.op)};
    }

    for (const auto& plan : cand.movs) {
        const ValueKey& key = node.srcs[plan.srcIndex].value;
        CopyOp copy;
        copy.row = plan.movRow;
        copy.fu = plan.movFu;
        copy.srcCluster = plan.srcCluster;
        copy.srcReg = plan.srcReg;
        copy.dstCluster = cand.cluster;
        copy.dstReg = fs.newTemp(cand.cluster);
        markBusy(plan.movFu, plan.movRow);
        copies.push_back(copy);
        ++fs.copiesInserted;

        locationsOf(key)[cand.cluster] = Location{
            copy.dstReg,
            plan.movRow + fs.fus.maxLatency(isa::UnitType::Integer)};
    }

    if (node.dst != ir::kNoReg && node.writesHome) {
        const auto& [hc, hr] = fs.homeOf(node.dst);
        node.dests.emplace_back(hc, hr);
        locationsOf(ValueKey::ofDef(n))[hc] =
            Location{hr, node.row + fs.latencyOf(node.op)};
    }
}

void
BlockScheduler::scheduleNode(int n)
{
    Candidate best;
    auto consider = [&](int c) {
        Candidate cand = evaluate(n, c);
        if (cand.cost < best.cost)
            best = std::move(cand);
    };
    if (isa::unitTypeOf(nodes[n].op) == isa::UnitType::Branch)
        consider(fs.placement.branchCluster);
    else
        for (int c : fs.placement.clusterOrder)
            consider(c);
    if (best.cost >= kInfeasible)
        throw CompileError(strCat(
            "no feasible cluster for ",
            nodes[n].instr != nullptr ? nodes[n].instr->toString()
                                      : "a lead copy",
            " in ", fs.func.name));
    commit(n, best);
}

void
BlockScheduler::scheduleAll()
{
    // Most critical first: a heap of (-height, id), smallest on top.
    const auto later = std::greater<std::pair<int, int>>();
    ready.clear();
    for (std::size_t id = 0; id < nodes.size(); ++id)
        if (nodes[id].predsLeft == 0 && static_cast<int>(id) != termNode)
            ready.push_back({-nodes[id].height, static_cast<int>(id)});
    std::make_heap(ready.begin(), ready.end(), later);

    std::size_t scheduled = 0;
    while (!ready.empty()) {
        std::pop_heap(ready.begin(), ready.end(), later);
        const int id = ready.back().second;
        ready.pop_back();
        scheduleNode(id);
        ++scheduled;
        for (int k = nodes[id].succBegin; k < nodes[id].succEnd; ++k) {
            const int s = succs[k].first;
            if (--nodes[s].predsLeft == 0 && s != termNode) {
                ready.push_back({-nodes[s].height, s});
                std::push_heap(ready.begin(), ready.end(), later);
            }
        }
    }

    // The terminator is the row at which the instruction pointer
    // leaves the block, so it must share or follow the final row.
    if (termNode >= 0) {
        PROCOUP_ASSERT(nodes[termNode].predsLeft == 0,
                       "terminator blocked by unscheduled operations");
        int floor = 0;
        for (const auto& n : nodes)
            if (n.row >= 0)
                floor = std::max(floor, n.row);
        Candidate cand = evaluate(termNode, fs.placement.branchCluster);
        if (cand.cost >= kInfeasible)
            throw CompileError(strCat("cannot schedule terminator of ",
                                      fs.func.name));
        cand.row = firstFreeRow(cand.fu, std::max(cand.row, floor));
        commit(termNode, cand);
        ++scheduled;
    }
    PROCOUP_ASSERT(scheduled == nodes.size(),
                   "list scheduling left operations unplaced");
}

// ===================================================================
// Emission
// ===================================================================

std::vector<isa::Instruction>
BlockScheduler::emit()
{
    // Compress empty rows: rows encode ordering only — data timing is
    // enforced at runtime by the register presence bits. Each row
    // holds its nodes in id order, then its copies in insertion order.
    rowIndex.assign(maxRow + 1, -1);
    for (const auto& n : nodes)
        rowIndex[n.row] = 0;
    for (const auto& copy : copies)
        rowIndex[copy.row] = 0;
    int rows = 0;
    for (int& r : rowIndex)
        if (r == 0)
            r = rows++;
    std::vector<isa::Instruction> out(rows);

    auto reg_of = [](int cluster, std::uint32_t reg) {
        return isa::RegRef{static_cast<std::uint16_t>(cluster),
                           static_cast<std::uint16_t>(reg)};
    };

    for (auto& n : nodes) {
        isa::Operation op;
        op.opcode = n.op;
        if (n.instr != nullptr) {
            op.flavor = n.instr->flavor;
            op.branchTarget = static_cast<std::uint32_t>(
                std::max(n.instr->target, 0));
            op.forkTarget = n.instr->forkTarget;
            op.markId = n.instr->markId;
        }

        for (std::size_t si = 0; si < n.srcs.size(); ++si) {
            const NodeSrc& src = n.srcs[si];
            if (src.isConst) {
                op.srcs.push_back(isa::Operand::makeImm(
                    n.instr->srcs[si].constant()));
                continue;
            }
            const Location& loc = locationsOf(src.value)[n.cluster];
            PROCOUP_ASSERT(loc.present(),
                           "operand missing in issuing cluster");
            op.srcs.push_back(
                isa::Operand::makeReg(reg_of(n.cluster, loc.reg)));
        }

        if (isa::opcodeWritesRegister(op.opcode) && n.dests.empty())
            n.dests.emplace_back(n.cluster, fs.newTemp(n.cluster));
        for (const auto& [c, r] : n.dests)
            op.dsts.push_back(reg_of(c, r));

        out[rowIndex[n.row]].slots.push_back(
            isa::OpSlot{static_cast<std::uint16_t>(n.fu), std::move(op)});
    }

    for (const auto& copy : copies) {
        isa::Operation op;
        op.opcode = Opcode::MOV;
        op.srcs.push_back(isa::Operand::makeReg(
            reg_of(copy.srcCluster, copy.srcReg)));
        op.dsts.push_back(reg_of(copy.dstCluster, copy.dstReg));
        out[rowIndex[copy.row]].slots.push_back(
            isa::OpSlot{static_cast<std::uint16_t>(copy.fu),
                        std::move(op)});
    }
    return out;
}

} // namespace

// ===================================================================
// Public entry point
// ===================================================================

namespace {

/**
 * Peephole: a BR whose target is the immediately following row is a
 * no-op (the instruction pointer falls through row-wise), so drop it;
 * rows left empty are removed and every branch target remapped. Runs
 * to a fixpoint because removals create new fallthrough pairs.
 */
void
elideFallthroughBranches(isa::ThreadCode& code)
{
    bool changed = true;
    while (changed) {
        changed = false;

        // Drop redundant unconditional branches.
        for (std::size_t row = 0; row < code.instructions.size();
             ++row) {
            auto& slots = code.instructions[row].slots;
            for (auto it = slots.begin(); it != slots.end();) {
                if (it->op.opcode == Opcode::BR &&
                        it->op.branchTarget == row + 1) {
                    it = slots.erase(it);
                    changed = true;
                } else {
                    ++it;
                }
            }
        }

        // Remove rows left empty, remapping branch targets.
        std::vector<std::uint32_t> remap(code.instructions.size() + 1);
        std::uint32_t next = 0;
        for (std::size_t row = 0; row < code.instructions.size();
             ++row) {
            remap[row] = next;
            if (!code.instructions[row].slots.empty())
                ++next;
        }
        remap[code.instructions.size()] = next;

        if (next != code.instructions.size()) {
            std::vector<isa::Instruction> kept;
            kept.reserve(next);
            for (auto& inst : code.instructions)
                if (!inst.slots.empty())
                    kept.push_back(std::move(inst));
            code.instructions = std::move(kept);
            for (auto& inst : code.instructions)
                for (auto& slot : inst.slots)
                    if (isa::opcodeIsBranch(slot.op.opcode))
                        slot.op.branchTarget =
                            remap[slot.op.branchTarget];
            changed = true;
        }
    }
}

} // namespace

isa::ThreadCode
scheduleFunction(const ir::ThreadFunc& func, const config::FuTable& fus,
                 const FuncPlacement& placement, FuncScheduleInfo* info)
{
    FunctionScheduler fsched(func, fus, placement);
    BlockScheduler bs(fsched);

    isa::ThreadCode code;
    code.name = func.name;

    std::vector<int> block_start;
    std::vector<int> block_rows;
    for (const auto& block : func.blocks) {
        auto rows = bs.run(block);
        block_start.push_back(
            static_cast<int>(code.instructions.size()));
        block_rows.push_back(static_cast<int>(rows.size()));
        for (auto& r : rows)
            code.instructions.push_back(std::move(r));
    }

    // Patch branch targets: block index -> absolute row.
    for (auto& inst : code.instructions)
        for (auto& slot : inst.slots)
            if (isa::opcodeIsBranch(slot.op.opcode))
                slot.op.branchTarget = static_cast<std::uint32_t>(
                    block_start.at(slot.op.branchTarget));

    elideFallthroughBranches(code);

    code.regCount = fsched.regCounter;
    for (std::uint32_t p : func.params) {
        const auto& [c, r] = fsched.homeOf(p);
        code.paramHomes.push_back(
            isa::RegRef{static_cast<std::uint16_t>(c),
                        static_cast<std::uint16_t>(r)});
    }

    if (info != nullptr) {
        info->name = func.name;
        info->blockRows = block_rows;
        info->totalRows = static_cast<int>(code.instructions.size());
        int ops = 0;
        for (const auto& i : code.instructions)
            ops += static_cast<int>(i.slots.size());
        info->totalOps = ops;
        info->copiesInserted = fsched.copiesInserted;
        info->regCount = code.regCount;
    }
    return code;
}

} // namespace sched
} // namespace procoup
