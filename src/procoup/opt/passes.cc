#include "procoup/opt/passes.hh"

#include <array>
#include <bit>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "procoup/isa/alu.hh"
#include "procoup/support/error.hh"

namespace procoup {
namespace opt {

using ir::IrInstr;
using ir::IrValue;
using ir::ThreadFunc;
using isa::Opcode;
using isa::Value;

namespace {

/** Number of definitions of each vreg in the function. */
std::vector<int>
defCounts(const ThreadFunc& func)
{
    std::vector<int> counts(func.regTypes.size(), 0);
    for (std::uint32_t p : func.params)
        ++counts[p];
    for (const auto& b : func.blocks)
        for (const auto& i : b.instrs)
            if (i.dst != ir::kNoReg)
                ++counts[i.dst];
    return counts;
}

/** True for operations free of side effects whose value is a pure
 *  function of the sources (removable / CSE-able). */
bool
isPureAlu(const IrInstr& i)
{
    if (i.dst == ir::kNoReg || i.isMemory())
        return false;
    switch (i.op) {
      case Opcode::MARK: case Opcode::FORK: case Opcode::ETHR:
      case Opcode::BR: case Opcode::BT: case Opcode::BF:
      case Opcode::NOP:
        return false;
      default:
        return true;
    }
}

/** A plain (non-synchronizing) load. */
bool
isPlainLoad(const IrInstr& i)
{
    return i.op == Opcode::LD &&
           i.flavor.pre == isa::MemPre::None &&
           i.flavor.post == isa::MemPost::Leave;
}

/** A memory reference with synchronization semantics. */
bool
isSyncMemory(const IrInstr& i)
{
    if (!i.isMemory())
        return false;
    if (i.flavor.pre != isa::MemPre::None)
        return true;
    if (i.op == Opcode::LD)
        return i.flavor.post != isa::MemPost::Leave;
    return i.flavor.post != isa::MemPost::SetFull;
}

/** Try to evaluate a pure op whose sources are all constants. */
std::optional<Value>
foldInstr(const IrInstr& i)
{
    for (const auto& s : i.srcs)
        if (!s.isConst())
            return std::nullopt;
    std::vector<Value> srcs;
    for (const auto& s : i.srcs)
        srcs.push_back(s.constant());
    if (i.op == Opcode::IDIV || i.op == Opcode::IMOD) {
        if (srcs.size() == 2 && srcs[1].asInt() == 0)
            return std::nullopt;  // keep the runtime trap
    }
    return isa::evalAlu(i.op, srcs);
}

} // namespace

bool
constantPropagation(ThreadFunc& func)
{
    const auto defs = defCounts(func);
    const std::size_t nregs = func.regTypes.size();

    // Single-definition registers holding constants are constant
    // everywhere (the frontend emits structured code: a single def
    // dominates every use).
    std::vector<std::optional<Value>> global_const(nregs);
    for (const auto& b : func.blocks)
        for (const auto& i : b.instrs)
            if (i.op == Opcode::MOV && i.dst != ir::kNoReg &&
                    defs[i.dst] == 1 && i.srcs[0].isConst())
                global_const[i.dst] = i.srcs[0].constant();

    bool changed = false;
    std::vector<std::optional<Value>> local(nregs);
    std::vector<std::uint32_t> local_regs;  ///< set in the current block
    for (auto& b : func.blocks) {
        for (std::uint32_t r : local_regs)
            local[r].reset();
        local_regs.clear();
        for (auto& i : b.instrs) {
            // Substitute known constants into sources.
            for (auto& s : i.srcs) {
                if (!s.isReg())
                    continue;
                const auto& known = local[s.reg()] ? local[s.reg()]
                                                   : global_const[s.reg()];
                if (known) {
                    s = IrValue::makeConst(*known);
                    changed = true;
                }
            }

            // Static evaluation of pure ops with constant operands.
            if (isPureAlu(i) && i.op != Opcode::MOV) {
                if (auto v = foldInstr(i)) {
                    i.op = Opcode::MOV;
                    i.srcs = {IrValue::makeConst(*v)};
                    changed = true;
                }
            }

            if (i.dst != ir::kNoReg) {
                local[i.dst].reset();
                if (i.op == Opcode::MOV && i.srcs[0].isConst()) {
                    local[i.dst] = i.srcs[0].constant();
                    local_regs.push_back(i.dst);
                }
            }
        }
    }
    return changed;
}

bool
copyPropagation(ThreadFunc& func)
{
    const auto defs = defCounts(func);
    const std::size_t nregs = func.regTypes.size();

    // Function-wide copies: MOV dst <- src where both are defined
    // exactly once; dst is then an alias of src everywhere.
    std::vector<std::uint32_t> alias(nregs, ir::kNoReg);
    for (const auto& b : func.blocks)
        for (const auto& i : b.instrs)
            if (i.op == Opcode::MOV && i.dst != ir::kNoReg &&
                    i.srcs[0].isReg() && defs[i.dst] == 1 &&
                    defs[i.srcs[0].reg()] == 1 &&
                    func.regType(i.dst) ==
                        func.regType(i.srcs[0].reg()))
                alias[i.dst] = i.srcs[0].reg();

    auto resolve = [&](std::uint32_t r) {
        // Follow chains (a = b, b = c); cycles cannot occur in
        // single-def copies.
        while (alias[r] != ir::kNoReg)
            r = alias[r];
        return r;
    };

    // Block-local copy environment for multi-def registers: copy_of[d]
    // is the register d copies, and copied_into[s] lists registers
    // that copied s (a member whose copy_of moved on is skipped).
    std::vector<std::uint32_t> copy_of(nregs, ir::kNoReg);
    std::vector<std::vector<std::uint32_t>> copied_into(nregs);
    std::vector<std::uint32_t> local_regs;  ///< copies made in this block

    bool changed = false;
    for (auto& b : func.blocks) {
        for (std::uint32_t r : local_regs)
            copy_of[r] = ir::kNoReg;
        local_regs.clear();
        for (auto& i : b.instrs) {
            for (auto& s : i.srcs) {
                if (!s.isReg())
                    continue;
                std::uint32_t r = s.reg();
                if (copy_of[r] != ir::kNoReg)
                    r = copy_of[r];
                r = resolve(r);
                if (r != s.reg()) {
                    s = IrValue::makeReg(r);
                    changed = true;
                }
            }

            if (i.dst != ir::kNoReg) {
                // Kill copies reading or defining the overwritten reg.
                copy_of[i.dst] = ir::kNoReg;
                for (std::uint32_t d : copied_into[i.dst])
                    if (copy_of[d] == i.dst)
                        copy_of[d] = ir::kNoReg;
                copied_into[i.dst].clear();
                if (i.op == Opcode::MOV && i.srcs[0].isReg() &&
                        i.srcs[0].reg() != i.dst &&
                        func.regType(i.dst) ==
                            func.regType(i.srcs[0].reg())) {
                    const std::uint32_t src = i.srcs[0].reg();
                    copy_of[i.dst] = src;
                    copied_into[src].push_back(i.dst);
                    local_regs.push_back(i.dst);
                }
            }
        }
    }
    return changed;
}

namespace {

/**
 * Structural identity of a CSE candidate: opcode, the source
 * operands (a vreg id, or a constant's exact bits and int/float tag)
 * and, for loads, the interned symbol and the flavor. Packed into
 * words so equality and hashing are plain loops.
 */
struct ExprKey
{
    static constexpr std::size_t kMaxSrcs = 3;

    /** [0]: opcode, flavor, source count, symbol; then a (tag, bits)
     *  pair per source. */
    std::array<std::uint64_t, 1 + 2 * kMaxSrcs> words{};

    bool operator==(const ExprKey&) const = default;
};

struct ExprKeyHash
{
    std::size_t
    operator()(const ExprKey& k) const
    {
        std::uint64_t h = 0;
        for (std::uint64_t w : k.words)
            h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        return static_cast<std::size_t>(h);
    }
};

enum SrcTag : std::uint64_t { kUnused, kReg, kInt, kFloat };

ExprKey
exprKey(const IrInstr& i, int sym)
{
    PROCOUP_ASSERT(i.srcs.size() <= ExprKey::kMaxSrcs,
                   "CSE candidate with too many sources");
    ExprKey k;
    k.words[0] = static_cast<std::uint64_t>(i.op) |
                 static_cast<std::uint64_t>(i.srcs.size()) << 16;
    if (i.isMemory())
        k.words[0] |=
            static_cast<std::uint64_t>(i.flavor.pre) << 8 |
            static_cast<std::uint64_t>(i.flavor.post) << 12 |
            static_cast<std::uint64_t>(sym + 1) << 32;
    for (std::size_t s = 0; s < i.srcs.size(); ++s) {
        const IrValue& v = i.srcs[s];
        std::uint64_t tag = kReg;
        std::uint64_t bits = 0;
        if (v.isReg()) {
            bits = v.reg();
        } else {
            const Value& c = v.constant();
            tag = c.isFloat() ? kFloat : kInt;
            bits = c.isFloat()
                ? std::bit_cast<std::uint64_t>(c.rawFloat())
                : static_cast<std::uint64_t>(c.rawInt());
        }
        k.words[1 + 2 * s] = tag;
        k.words[2 + 2 * s] = bits;
    }
    return k;
}

} // namespace

bool
commonSubexpressionElimination(ThreadFunc& func)
{
    const std::size_t nregs = func.regTypes.size();

    // Function-wide interning of expression keys and load symbols.
    std::unordered_map<ExprKey, std::uint32_t, ExprKeyHash> key_ids;
    std::unordered_map<std::string, int> sym_ids;

    // avail[key id] is the vreg holding the value in the current
    // block (kNoReg once killed). readers[v] and definers[v] list the
    // keys reading / held in v, sym_loads[sym] and loads the load keys
    // of one symbol / of all. Lists are emptied when used and never
    // between blocks: a member keeps the property its list names, so
    // killing it again is right, and a definer is killed only while
    // it still holds v.
    std::vector<std::uint32_t> avail;
    std::vector<std::uint32_t> block_keys;  ///< made available here
    std::vector<std::vector<std::uint32_t>> readers(nregs);
    std::vector<std::vector<std::uint32_t>> definers(nregs);
    std::vector<std::vector<std::uint32_t>> sym_loads;
    std::vector<std::uint32_t> loads;

    auto kill = [&](std::vector<std::uint32_t>& ids) {
        for (std::uint32_t id : ids)
            avail[id] = ir::kNoReg;
        ids.clear();
    };

    bool changed = false;
    for (auto& b : func.blocks) {
        kill(block_keys);
        for (auto& i : b.instrs) {
            const bool is_load = isPlainLoad(i);
            const bool cseable =
                (isPureAlu(i) && i.op != Opcode::MOV) || is_load;

            bool rewritten = false;
            std::uint32_t id = 0;
            int sym = -1;
            if (cseable) {
                if (is_load) {
                    sym = sym_ids.try_emplace(
                        i.memSym, static_cast<int>(sym_ids.size()))
                        .first->second;
                    if (sym == static_cast<int>(sym_loads.size()))
                        sym_loads.emplace_back();
                }
                const auto [it, fresh] = key_ids.try_emplace(
                    exprKey(i, sym),
                    static_cast<std::uint32_t>(key_ids.size()));
                id = it->second;
                if (fresh)
                    avail.push_back(ir::kNoReg);
                const std::uint32_t prior = avail[id];
                if (prior != ir::kNoReg &&
                        func.regType(prior) == func.regType(i.dst)) {
                    // Duplicate: rewrite as a copy of the prior result.
                    i.op = Opcode::MOV;
                    i.srcs = {IrValue::makeReg(prior)};
                    i.memSym.clear();
                    i.flavor = isa::MemFlavor();
                    changed = true;
                    rewritten = true;
                }
            }

            // Invalidation rules: an unknown-symbol or synchronizing
            // store, a synchronizing load and FORK kill every load; a
            // plain store kills the loads of its symbol.
            if (i.op == Opcode::ST && !isSyncMemory(i) &&
                    !i.memSym.empty()) {
                const auto it = sym_ids.find(i.memSym);
                if (it != sym_ids.end())
                    kill(sym_loads[it->second]);
            } else if (i.op == Opcode::ST ||
                       (i.op == Opcode::LD && isSyncMemory(i)) ||
                       i.op == Opcode::FORK) {
                kill(loads);
            }

            if (i.dst != ir::kNoReg) {
                // Redefinition kills expressions reading the old value
                // and the expressions it holds.
                kill(readers[i.dst]);
                for (std::uint32_t k : definers[i.dst])
                    if (avail[k] == i.dst)
                        avail[k] = ir::kNoReg;
                definers[i.dst].clear();
            }

            // Make the (surviving) expression available, unless it
            // consumes the register it defines (x = x * x).
            if (cseable && !rewritten) {
                bool self_ref = false;
                for (const auto& s : i.srcs)
                    if (s.isReg() && s.reg() == i.dst)
                        self_ref = true;
                if (!self_ref) {
                    avail[id] = i.dst;
                    block_keys.push_back(id);
                    definers[i.dst].push_back(id);
                    for (const auto& s : i.srcs)
                        if (s.isReg())
                            readers[s.reg()].push_back(id);
                    if (is_load) {
                        sym_loads[sym].push_back(id);
                        loads.push_back(id);
                    }
                }
            }
        }
    }
    return changed;
}

bool
deadCodeElimination(ThreadFunc& func)
{
    // Flat instruction index over all blocks.
    std::vector<IrInstr*> instrs;
    for (auto& b : func.blocks)
        for (auto& i : b.instrs)
            instrs.push_back(&i);

    // Use counts, and the removable definitions of each vreg as a list
    // threaded through next_def.
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    const std::size_t nregs = func.regTypes.size();
    std::vector<int> uses(nregs, 0);
    std::vector<std::uint32_t> first_def(nregs, kNone);
    std::vector<std::uint32_t> next_def(instrs.size(), kNone);
    auto removable = [](const IrInstr& i) {
        return (isPureAlu(i) || isPlainLoad(i)) && i.dst != ir::kNoReg;
    };
    for (std::uint32_t k = 0; k < instrs.size(); ++k) {
        for (const auto& s : instrs[k]->srcs)
            if (s.isReg())
                ++uses[s.reg()];
        if (removable(*instrs[k])) {
            next_def[k] = first_def[instrs[k]->dst];
            first_def[instrs[k]->dst] = k;
        }
    }

    // Remove unread definitions; a source whose last reader goes
    // makes its own definitions dead in turn.
    std::vector<char> dead(instrs.size(), 0);
    std::vector<std::uint32_t> work;
    for (std::uint32_t k = 0; k < instrs.size(); ++k)
        if (removable(*instrs[k]) && uses[instrs[k]->dst] == 0)
            work.push_back(k);
    bool changed = false;
    while (!work.empty()) {
        const std::uint32_t k = work.back();
        work.pop_back();
        if (dead[k])
            continue;
        dead[k] = 1;
        changed = true;
        for (const auto& s : instrs[k]->srcs)
            if (s.isReg() && --uses[s.reg()] == 0)
                for (std::uint32_t d = first_def[s.reg()]; d != kNone;
                     d = next_def[d])
                    work.push_back(d);
    }
    if (!changed)
        return false;

    // Compact each block once.
    std::size_t k = 0;
    for (auto& b : func.blocks) {
        auto& ins = b.instrs;
        std::size_t out = 0;
        for (std::size_t j = 0; j < ins.size(); ++j, ++k)
            if (!dead[k]) {
                if (out != j)
                    ins[out] = std::move(ins[j]);
                ++out;
            }
        ins.erase(ins.begin() + static_cast<std::ptrdiff_t>(out),
                  ins.end());
    }
    return true;
}

void
optimize(ir::Module& mod)
{
    for (auto& f : mod.funcs) {
        for (int round = 0; round < 16; ++round) {
            bool changed = false;
            changed |= constantPropagation(f);
            changed |= copyPropagation(f);
            changed |= commonSubexpressionElimination(f);
            changed |= deadCodeElimination(f);
            if (!changed)
                break;
        }
    }
}

} // namespace opt
} // namespace procoup
