#include "procoup/opt/liveness.hh"

#include "procoup/support/error.hh"

namespace procoup {
namespace opt {

Liveness
computeLiveness(const ir::ThreadFunc& func)
{
    const int nblocks = static_cast<int>(func.blocks.size());
    const std::size_t words = (func.regTypes.size() + 63) / 64;
    auto set = [&](std::vector<std::uint64_t>& bits, int b,
                   std::uint32_t r) {
        bits[b * words + r / 64] |= std::uint64_t{1} << (r % 64);
    };
    auto has = [&](const std::vector<std::uint64_t>& bits, int b,
                   std::uint32_t r) {
        return (bits[b * words + r / 64] >> (r % 64) & 1) != 0;
    };

    // Per-block use (read before any write) and def (written) sets.
    std::vector<std::uint64_t> use(nblocks * words, 0);
    std::vector<std::uint64_t> def(nblocks * words, 0);
    std::vector<std::vector<int>> succs(nblocks);
    for (int b = 0; b < nblocks; ++b) {
        for (const auto& i : func.blocks[b].instrs) {
            for (const auto& s : i.srcs)
                if (s.isReg() && !has(def, b, s.reg()))
                    set(use, b, s.reg());
            if (i.dst != ir::kNoReg)
                set(def, b, i.dst);
        }
        succs[b] = func.successors(b);
    }

    Liveness live;
    live.words = words;
    live.liveIn.assign(nblocks * words, 0);
    live.liveOut.assign(nblocks * words, 0);

    bool changed = true;
    while (changed) {
        changed = false;
        for (int b = nblocks - 1; b >= 0; --b) {
            for (std::size_t w = 0; w < words; ++w) {
                std::uint64_t out = 0;
                for (int s : succs[b])
                    out |= live.liveIn[s * words + w];
                const std::size_t k = b * words + w;
                const std::uint64_t in = use[k] | (out & ~def[k]);
                if (out != live.liveOut[k] || in != live.liveIn[k]) {
                    live.liveOut[k] = out;
                    live.liveIn[k] = in;
                    changed = true;
                }
            }
        }
    }
    return live;
}

std::vector<bool>
crossBlockRegs(const ir::ThreadFunc& func, const Liveness& live)
{
    const std::size_t nregs = func.regTypes.size();
    std::vector<std::uint64_t> any(live.words, 0);
    for (std::size_t k = 0; k < live.liveIn.size(); ++k)
        any[k % live.words] |= live.liveIn[k] | live.liveOut[k];

    std::vector<bool> cross(nregs, false);
    for (std::size_t r = 0; r < nregs; ++r)
        cross[r] = (any[r / 64] >> (r % 64) & 1) != 0;
    for (std::uint32_t p : func.params)
        cross[p] = true;
    return cross;
}

} // namespace opt
} // namespace procoup
