#include "procoup/sim/simulator.hh"

#include <algorithm>
#include <limits>

#include "procoup/config/validate.hh"
#include "procoup/isa/alu.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace sim {

using isa::Opcode;
using isa::Operation;
using isa::Value;

namespace {

constexpr std::uint64_t neverCycle =
    std::numeric_limits<std::uint64_t>::max();

/** Cycles between wall-clock deadline probes: cheap enough to leave
 *  armed, frequent enough that a runaway loop trips within ms. */
constexpr std::uint64_t wallCheckIntervalCycles = 4096;

} // namespace

Simulator::Simulator(const config::MachineConfig& machine,
                     const isa::Program& program,
                     const SimOptions& options)
    : arbitration(machine.arbitration),
      maxActiveThreads(machine.maxActiveThreads),
      swapOutIdleCycles(machine.swapOutIdleCycles),
      deadlockCycleLimit(machine.deadlockCycleLimit), program(program),
      opts(options),
      network(machine.interconnect,
              static_cast<int>(machine.clusters.size())),
      opCaches(machine.opCache, machine.numFus())
{
    config::validateProgram(program, machine);

    for (int fu = 0; fu < machine.numFus(); ++fu) {
        FuState f;
        f.cluster = machine.fuCluster(fu);
        f.type = machine.fuConfig(fu).type;
        f.latency = machine.fuConfig(fu).latency;
        fus.push_back(f);
    }
    _stats.opsByFu.assign(fus.size(), 0);
    _stats.stallsByFu.assign(fus.size(), StallCounts{});
    _stats.stallsByCluster.assign(machine.clusters.size(),
                                  StallCounts{});
    rrLastThread.assign(fus.size(), -1);
    fuPicks.assign(fus.size(), FuPick{});

    if (opts.faults.enabled)
        faults = std::make_unique<fault::FaultInjector>(opts.faults);

    // Completion wheel: one bucket per reachable completion distance
    // (a fault-injected pipeline bubble extends that distance).
    int max_latency = 1;
    for (const auto& f : fus)
        max_latency = std::max(max_latency, f.latency);
    if (faults)
        max_latency += faults->maxPipelineBubble();
    wheel.assign(static_cast<std::size_t>(max_latency) + 1, {});

    // Operation caches mutate hit/miss statistics on every probe, and
    // idle swap-out watches the wall clock: both give "nothing
    // happened" cycles side effects, so they disqualify fast-forward.
    ffMachineOk = !opCaches.enabled() &&
                  !(machine.swapOutIdleCycles > 0 &&
                    machine.maxActiveThreads > 0);

    mem = std::make_unique<MemorySystem>(machine.memory,
                                         program.memorySize,
                                         program.memInits);
    mem->setFaultInjector(faults.get());

    // Periodic op-cache flushes only bite when the op-cache model is
    // on (which already disables fast-forward, keeping the per-cycle
    // flush boundary check exact).
    if (faults && faults->plan().opcacheFlushPeriod > 0 &&
            opCaches.enabled())
        nextOpcacheFlush = faults->plan().opcacheFlushPeriod;

    nextSanitizeCycle = opts.sanitizeEveryCycles;
    slowChecks = opts.limits.maxCycles > 0 ||
                 opts.limits.wallClockDeadlineMs > 0.0 ||
                 opts.sanitizeEveryCycles > 0 || nextOpcacheFlush > 0;

    spawnThread(program.entry, {});
}

Simulator::~Simulator() = default;

void
Simulator::spawnThread(std::uint32_t fork_target, const ValueList& args)
{
    const auto& code = program.threads.at(fork_target);
    const int id = static_cast<int>(threads.size());
    auto t = std::make_unique<ThreadContext>(id, &code, fork_target,
                                             _cycle);
    PROCOUP_ASSERT(args.size() == code.paramHomes.size(),
                   "fork argument count mismatch");
    for (std::size_t i = 0; i < args.size(); ++i)
        t->regs().deposit(code.paramHomes[i], args[i]);
    if (t->state() == ThreadState::Active)
        activeList.push_back(id);
    trace(TraceEvent::Kind::Spawn, id, -1, [&] { return code.name; });
    threads.push_back(std::move(t));
    threadStalls.push_back(StallCounts{});
    wbByThread.emplace_back();
    ++_stats.threadsSpawned;
    progressThisCycle = true;
}

int
Simulator::activeThreads() const
{
    return static_cast<int>(activeList.size());
}

bool
Simulator::operandsReady(const ThreadContext& t, const Operation& op) const
{
    for (const auto& src : op.srcs)
        if (src.isReg() && !t.regs().isValid(src.reg()))
            return false;
    // Scoreboard write-after-write interlock: a destination with an
    // outstanding write (e.g. a miss-delayed load) blocks issue, or
    // the stale writeback could land after — and clobber — ours.
    for (const auto& dst : op.dsts)
        if (!t.regs().isValid(dst))
            return false;
    return true;
}

ValueList
Simulator::readSources(const ThreadContext& t, const Operation& op) const
{
    ValueList vals;
    for (const auto& src : op.srcs)
        vals.push_back(src.isReg() ? t.regs().read(src.reg())
                                   : src.imm());
    return vals;
}

void
Simulator::emitTrace(TraceEvent::Kind kind, int thread, int fu,
                     std::string detail)
{
    TraceEvent e;
    e.kind = kind;
    e.cycle = _cycle;
    e.thread = thread;
    e.fu = fu;
    e.detail = std::move(detail);
    tracer(e);
}

void
Simulator::emitStallTrace(int fu, int thread, StallCause cause)
{
    TraceEvent e;
    e.kind = TraceEvent::Kind::Stall;
    e.cycle = _cycle;
    e.thread = thread;
    e.fu = fu;
    e.cause = cause;
    tracer(e);
}

void
Simulator::chargeFuStallSpan(int fu, int thread, StallCause cause,
                             std::uint64_t span)
{
    const int k = static_cast<int>(cause);
    _stats.stallsByFu[fu][k] += span;
    _stats.stallsByCluster[fus[fu].cluster][k] += span;
    _stats.stallsTotal[k] += span;
    if (thread >= 0)
        threadStalls[thread][k] += span;
}

StallCause
Simulator::classifyOperandStall(const ThreadContext& t,
                                const Operation& op) const
{
    // The blocking register: the first invalid source, or — for the
    // WAW scoreboard interlock — the first still-outstanding
    // destination.
    const isa::RegRef* blocker = nullptr;
    for (const auto& src : op.srcs) {
        if (src.isReg() && !t.regs().isValid(src.reg())) {
            blocker = &src.reg();
            break;
        }
    }
    if (!blocker) {
        for (const auto& dst : op.dsts) {
            if (!t.regs().isValid(dst)) {
                blocker = &dst;
                break;
            }
        }
    }
    PROCOUP_ASSERT(blocker != nullptr,
                   "operand stall without an invalid register");

    // Where is the outstanding write? Produced but stuck in writeback
    // arbitration beats "still being produced": the value exists, only
    // the interconnect withholds it. Only the thread's own queue can
    // hold a write to its register.
    for (const auto& e : wbByThread[static_cast<std::size_t>(t.id())])
        if (e.dst == *blocker)
            return StallCause::WritebackConflict;
    if (mem->hasPendingWrite(t.id(), *blocker))
        return StallCause::MemoryBusy;
    return StallCause::OperandNotReady;
}

void
Simulator::executeIssue(int fu_index, int thread, std::size_t slot)
{
    ThreadContext& t = *threads[thread];
    const Operation& op = t.currentInstruction().slots[slot].op;
    const FuState& fu = fus[fu_index];

    const ValueList srcs = readSources(t, op);

    // Issue clears the destination presence bits.
    for (const auto& dst : op.dsts)
        t.regs().clearValid(dst);

    switch (op.opcode) {
      case Opcode::LD: {
        const std::int64_t addr = srcs[0].asInt() + srcs[1].asInt();
        if (addr < 0)
            throw SimError(SimErrorKind::Runtime, _cycle,
                           strCat("negative load address ", addr,
                                  " in thread ", t.id()));
        mem->issueLoad(_cycle, t.id(),
                       static_cast<std::uint32_t>(addr), op.flavor,
                       op.dsts, fu.cluster);
        break;
      }
      case Opcode::ST: {
        const std::int64_t addr = srcs[0].asInt() + srcs[1].asInt();
        if (addr < 0)
            throw SimError(SimErrorKind::Runtime, _cycle,
                           strCat("negative store address ", addr,
                                  " in thread ", t.id()));
        mem->issueStore(_cycle, t.id(),
                        static_cast<std::uint32_t>(addr), op.flavor,
                        srcs[2]);
        break;
      }
      case Opcode::BR:
        t.setBranch(true, op.branchTarget, _cycle + fu.latency - 1);
        break;
      case Opcode::BT:
        t.setBranch(srcs[0].truthy(), op.branchTarget,
                    _cycle + fu.latency - 1);
        break;
      case Opcode::BF:
        t.setBranch(!srcs[0].truthy(), op.branchTarget,
                    _cycle + fu.latency - 1);
        break;
      case Opcode::FORK: {
        PendingSpawn ps;
        ps.readyCycle = _cycle + fu.latency;
        if (faults)
            ps.readyCycle +=
                static_cast<std::uint64_t>(faults->spawnDelay());
        ps.forkTarget = op.forkTarget;
        ps.args = srcs;
        pendingSpawns.push_back(std::move(ps));
        break;
      }
      case Opcode::ETHR:
        t.setEnd(_cycle + fu.latency - 1);
        break;
      case Opcode::MARK:
        _stats.marks.push_back({t.id(), op.markId, _cycle});
        break;
      case Opcode::NOP:
        break;
      default: {
        // Register-writing ALU operation: result flows down the
        // pipeline and is written back after the unit latency.
        InFlightResult r;
        r.thread = t.id();
        r.srcCluster = fu.cluster;
        r.dsts = RegList(op.dsts.begin(), op.dsts.end());
        r.value = isa::evalAlu(op.opcode, srcs);
        // Latency 0 behaves as 1: results were only ever collected at
        // the top of the *next* cycle.
        int lat = fu.latency < 1 ? 1 : fu.latency;
        if (faults)
            lat += faults->pipelineBubble();
        wheel[(_cycle + static_cast<std::uint64_t>(lat)) %
              wheel.size()].push_back(std::move(r));
        ++inFlightCount;
        break;
      }
    }

    trace(TraceEvent::Kind::Issue, t.id(), fu_index,
          [&] { return op.toString(); });

    t.markIssued(slot);
    t.noteIssue(_cycle);
    noteFuCycle(fu_index, t.id(), StallCause::Issued);
    ++_stats.opsByFu[fu_index];
    ++_stats.opsByUnit[static_cast<int>(fu.type)];
    ++_stats.totalOps;
    progressThisCycle = true;
}

void
Simulator::enqueueWriteback(int thread, const isa::RegRef& dst,
                            const isa::Value& value, int src_cluster)
{
    auto& q = wbByThread[static_cast<std::size_t>(thread)];
    if (q.empty())
        wbPending.insert(std::upper_bound(wbPending.begin(),
                                          wbPending.end(), thread),
                         thread);
    q.push_back({dst, value, src_cluster});
    ++wbCount;
}

void
Simulator::doWriteback()
{
    if (wbCount == 0)
        return;

    // Priority: thread id (spawn order), then enqueue order — the
    // queues are per-thread FIFOs, so draining them in thread order
    // visits entries exactly as the old global (thread, age) sort did.
    // Only the queues wbPending lists can hold entries; nothing is
    // enqueued during the drain. A thread that retired before its
    // results landed stays listed until its queue empties.
    std::size_t pending = 0;
    for (const int th : wbPending) {
        auto& q = wbByThread[static_cast<std::size_t>(th)];
        ++_work.wbQueuesVisited;
        std::size_t keep = 0;
        for (std::size_t i = 0; i < q.size(); ++i) {
            WbEntry& e = q[i];
            if (network.tryGrant(e.srcCluster, e.dst.cluster)) {
                threads[th]->regs().write(e.dst, e.value);
                trace(TraceEvent::Kind::Writeback, th, -1, [&] {
                    return strCat(e.dst.toString(), " <- ",
                                  e.value.toString());
                });
                ++_stats.writebacks;
                if (e.srcCluster != e.dst.cluster)
                    ++_stats.remoteWrites;
                progressThisCycle = true;
                --wbCount;
            } else {
                if (keep != i)
                    q[keep] = std::move(e);
                ++keep;
            }
        }
        q.resize(keep);
        if (keep > 0)
            wbPending[pending++] = th;
    }
    wbPending.resize(pending);
    _stats.writebackStallCycles += wbCount;
}

bool
Simulator::finished() const
{
    return activeList.empty() && suspended.empty() && wbCount == 0 &&
           inFlightCount == 0 && mem->idle() &&
           pendingSpawns.empty() && waitingForSlot.empty();
}

void
Simulator::selectAndIssue()
{
    const StallCause no_candidate = activeList.empty()
                                        ? StallCause::IdleNoThread
                                        : StallCause::NoReadyOp;
    for (auto& p : fuPicks)
        p = {-1, 0, -1, no_candidate};

    // Every unissued slot of an active thread's current row is a
    // candidate of its unit (at most one per (row, unit)), and each
    // unit visits its candidates in its own scan order: priority
    // (spawn) order — activeList is kept sorted by thread id — or,
    // under round-robin, from the first thread past the unit's
    // last-served one (upper_bound(activeList, rrLastThread[fu])),
    // wrapping around. Walking the rows in activeList order visits
    // each unit's candidates from its scan start to the end; a second
    // walk, needed only under round-robin, covers the wrapped-around
    // front. The instruction pointers cannot move during the issue
    // phase, and selection reads a frozen view of the presence bits.
    const bool round_robin =
        arbitration == config::ArbitrationPolicy::RoundRobin;
    for (int lap = 0; lap < (round_robin ? 2 : 1); ++lap) {
        for (const int ti : activeList) {
            ThreadContext& t = *threads[ti];
            if (t.allSlotsIssued())
                continue;
            const isa::Instruction& inst = t.currentInstruction();
            _work.issueSlotsExamined += inst.slots.size();
            for (std::size_t s = 0; s < inst.slots.size(); ++s) {
                if (t.slotIssued(s))
                    continue;
                const std::size_t fu = inst.slots[s].fu;
                FuPick& pick = fuPicks[fu];
                if (pick.thread >= 0)
                    continue;
                if (round_robin && (ti > rrLastThread[fu]) != (lap == 0))
                    continue;
                const Operation& op = inst.slots[s].op;
                // Operand check first: fetching a line for an
                // operation that cannot issue anyway would evict
                // lines other threads are about to use.
                const bool ready = operandsReady(t, op);
                if (ready &&
                    opCaches.present(static_cast<int>(fu),
                                     t.codeIndex(),
                                     static_cast<std::uint32_t>(t.ip()),
                                     _cycle)) {
                    pick.thread = ti;
                    pick.slot = s;
                    rrLastThread[fu] = ti;
                } else if (pick.stallThread < 0) {
                    // Stall attribution: an empty cycle is charged to
                    // the unit's first blocked candidate in scan
                    // order, or to NoReadyOp/IdleNoThread when it has
                    // none.
                    pick.stallThread = ti;
                    pick.stallCause = ready
                                          ? StallCause::OpcacheMiss
                                          : classifyOperandStall(t, op);
                }
            }
        }
    }

    // Charge the stalls, then apply the issues, both in unit order:
    // memory RNG draws, wheel, spawn and trace order depend on it.
    const std::size_t nf = fus.size();
    for (std::size_t fu = 0; fu < nf; ++fu)
        if (fuPicks[fu].thread < 0)
            noteFuCycle(static_cast<int>(fu), fuPicks[fu].stallThread,
                        fuPicks[fu].stallCause);
    for (std::size_t fu = 0; fu < nf; ++fu)
        if (fuPicks[fu].thread >= 0)
            executeIssue(static_cast<int>(fu), fuPicks[fu].thread,
                         fuPicks[fu].slot);
}

bool
Simulator::step()
{
    if (finished())
        return false;

    // One predictable branch on the clean hot path; taken only when a
    // budget, the sanitizer, or a flush schedule armed it.
    if (slowChecks)
        preCycleChecks();

    progressThisCycle = false;
    network.beginCycle();

    // 1. Memory arrivals: completed loads join the writeback queue.
    memDoneScratch.clear();
    mem->tick(_cycle, memDoneScratch);
    for (const auto& cl : memDoneScratch) {
        trace(TraceEvent::Kind::MemComplete, cl.thread, -1, [&] {
            return strCat("load -> ", cl.value.toString());
        });
        for (const auto& dst : cl.dsts)
            enqueueWriteback(cl.thread, dst, cl.value, cl.srcCluster);
        progressThisCycle = true;
    }

    // 2. Function-unit pipeline completions: everything in this
    //    cycle's wheel bucket is due now.
    {
        auto& bucket = wheel[_cycle % wheel.size()];
        for (const auto& r : bucket) {
            for (const auto& dst : r.dsts)
                enqueueWriteback(r.thread, dst, r.value, r.srcCluster);
            progressThisCycle = true;
        }
        inFlightCount -= bucket.size();
        bucket.clear();
    }

    // 3. Writeback arbitration over the unit interconnection network.
    doWriteback();

    // 4. Issue: each function unit independently selects one ready
    //    pending operation. Selection uses a frozen view of the
    //    presence bits (all issue decisions are simultaneous); the
    //    effects are applied afterwards.
    selectAndIssue();

    // Fast-forward candidacy must be judged before threads advance:
    // a fully issued window can hold a branch/end timer that fires in
    // a later cycle without any visible event, so such threads bar
    // skipping. (Snapshot is exact: nothing issued this cycle.)
    bool thread_timer_pending = false;
    if (ffMachineOk && !tracer && !progressThisCycle)
        for (int ti : activeList)
            if (threads[ti]->allSlotsIssued()) {
                thread_timer_pending = true;
                break;
            }

    // 5. End of cycle: retire/advance threads, activate spawns.
    bool freed_slot = false;
    for (int ti : activeList) {
        if (threads[ti]->endOfCycle(_cycle)) {
            trace(TraceEvent::Kind::Retire, ti, -1,
                  [&] { return threads[ti]->code().name; });
            progressThisCycle = true;
            freed_slot = true;
        }
    }
    std::erase_if(activeList, [&](int ti) {
        return threads[ti]->state() != ThreadState::Active;
    });
    if (freed_slot)
        manageActiveSet();
    // A FORK issued at cycle t with unit latency L yields a child able
    // to issue from cycle t + L; spawning at the end of cycle t + L - 1
    // achieves that. Single stable compaction pass: spawned/parked
    // entries drop out, unripe ones slide forward in order.
    {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < pendingSpawns.size(); ++i) {
            PendingSpawn& ps = pendingSpawns[i];
            if (ps.readyCycle > _cycle + 1) {
                if (keep != i)
                    pendingSpawns[keep] = std::move(ps);
                ++keep;
            } else if (maxActiveThreads > 0 &&
                       activeThreads() >= maxActiveThreads) {
                waitingForSlot.push_back(std::move(ps));
            } else {
                spawnThread(ps.forkTarget, ps.args);
            }
        }
        pendingSpawns.resize(keep);
    }

    manageActiveSet();

    _stats.peakActiveThreads =
        std::max(_stats.peakActiveThreads, activeThreads());

    if (ffMachineOk && !tracer && !progressThisCycle &&
        !thread_timer_pending && wbCount == 0 && !finished())
        fastForwardQuiescentSpan();

    ++_cycle;
    if (progressThisCycle)
        lastProgressCycle = _cycle;
    checkDeadlock();
    return true;
}

void
Simulator::fastForwardQuiescentSpan()
{
    // Next cycle anything is scheduled to happen: a pipeline result
    // completes, a memory transaction arrives, or a pending FORK
    // activates (at readyCycle - 1, see step()). Parked memory
    // references only move on arrivals, threads cannot advance
    // (checked by the caller), and every unit's stall classification
    // is frozen until one of these events lands.
    std::uint64_t next = neverCycle;
    if (inFlightCount > 0) {
        const std::size_t w = wheel.size();
        for (std::size_t d = 1; d <= w; ++d) {
            if (!wheel[(_cycle + d) % w].empty()) {
                next = _cycle + d;
                break;
            }
        }
    }
    next = std::min(next, mem->nextArrivalCycle());
    for (const auto& ps : pendingSpawns)
        next = std::min(next, ps.readyCycle - 1);

    if (slowChecks) {
        // Budget and sanitizer boundaries are schedulable events too:
        // land on them exactly, so preCycleChecks() fires at the same
        // cycle plain cycle-by-cycle stepping would have reported.
        if (opts.limits.maxCycles)
            next = std::min(next, opts.limits.maxCycles);
        if (opts.sanitizeEveryCycles)
            next = std::min(next, nextSanitizeCycle);
        if (opts.limits.wallClockDeadlineMs > 0.0 && wallStarted)
            next = std::min(next, nextWallCheckCycle);
        if (nextOpcacheFlush)
            next = std::min(next, nextOpcacheFlush);
    }

    // Never skip past the deadlock detector: cycle-by-cycle stepping
    // reports at lastProgressCycle + limit + 1, after charging stalls
    // through lastProgressCycle + limit.
    const std::uint64_t horizon =
        lastProgressCycle +
        static_cast<std::uint64_t>(deadlockCycleLimit);
    bool deadlocked = false;
    if (next > horizon) {
        next = horizon + 1;
        deadlocked = true;
    }

    if (next > _cycle + 1) {
        // Skip cycles _cycle+1 .. next-1; each one would have charged
        // every unit to the same (thread, cause) as this cycle did.
        const std::uint64_t span = next - 1 - _cycle;
        for (std::size_t fu = 0; fu < fus.size(); ++fu)
            chargeFuStallSpan(static_cast<int>(fu),
                              fuPicks[fu].stallThread,
                              fuPicks[fu].stallCause, span);
        _cycle = next - 1;
    }
    if (deadlocked) {
        _cycle = next;
        reportDeadlock();
    }
}

void
Simulator::manageActiveSet()
{
    // Fill free slots: suspended threads resume first (they hold
    // partial state), then queued spawns, in FIFO order.
    auto has_slot = [&] {
        return maxActiveThreads == 0 || activeThreads() < maxActiveThreads;
    };
    bool resumed = false;
    while (has_slot() && !suspended.empty()) {
        const int ti = suspended.front();
        suspended.pop_front();
        threads[ti]->noteIssue(_cycle);  // fresh idle clock
        activeList.push_back(ti);
        resumed = true;
        trace(TraceEvent::Kind::Spawn, ti, -1, [&] {
            return strCat(threads[ti]->code().name, " (resumed)");
        });
        progressThisCycle = true;
    }
    // Restore priority order once, after the drain: nothing inside
    // the loop depends on activeList being sorted.
    if (resumed)
        std::sort(activeList.begin(), activeList.end());
    while (has_slot() && !waitingForSlot.empty()) {
        PendingSpawn ps = std::move(waitingForSlot.front());
        waitingForSlot.pop_front();
        spawnThread(ps.forkTarget, ps.args);
    }

    // Idle swap-out: a resident thread that has issued nothing for
    // the configured window gives up its slot when others wait.
    if (swapOutIdleCycles <= 0 || maxActiveThreads <= 0)
        return;
    const bool someone_waits =
        !waitingForSlot.empty() || !suspended.empty();
    if (!someone_waits)
        return;
    for (auto it = activeList.begin(); it != activeList.end();) {
        ThreadContext& t = *threads[*it];
        const bool idle =
            _cycle - t.lastIssueCycle() >
            static_cast<std::uint64_t>(swapOutIdleCycles);
        if (idle) {
            trace(TraceEvent::Kind::Retire, *it, -1, [&] {
                return strCat(t.code().name, " (swapped out)");
            });
            suspended.push_back(*it);
            it = activeList.erase(it);
            progressThisCycle = true;
            // Refill the freed slot immediately with a queued spawn;
            // suspended threads resume on the next manage pass, so a
            // swap never bounces a thread straight back in.
            if (!waitingForSlot.empty()) {
                PendingSpawn ps = std::move(waitingForSlot.front());
                waitingForSlot.pop_front();
                spawnThread(ps.forkTarget, ps.args);
            }
        } else {
            ++it;
        }
    }
}

void
Simulator::preCycleChecks()
{
    if (opts.limits.maxCycles && _cycle >= opts.limits.maxCycles)
        throw SimError(SimErrorKind::CycleLimit, _cycle,
                       strCat("cycle budget of ",
                              opts.limits.maxCycles,
                              " cycle(s) exhausted (",
                              activeThreads(), " active thread(s), ",
                              mem->parkedCount(),
                              " parked memory reference(s))"));

    if (opts.limits.wallClockDeadlineMs > 0.0) {
        if (!wallStarted) {
            wallStart = std::chrono::steady_clock::now();
            wallStarted = true;
            nextWallCheckCycle = _cycle + wallCheckIntervalCycles;
        } else if (_cycle >= nextWallCheckCycle) {
            nextWallCheckCycle = _cycle + wallCheckIntervalCycles;
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wallStart)
                    .count();
            if (ms > opts.limits.wallClockDeadlineMs)
                throw SimError(
                    SimErrorKind::WallClockDeadline, _cycle,
                    strCat("wall-clock deadline of ",
                           opts.limits.wallClockDeadlineMs,
                           " ms exhausted after ", _cycle,
                           " cycle(s) (", activeThreads(),
                           " active thread(s))"));
        }
    }

    if (opts.sanitizeEveryCycles && _cycle >= nextSanitizeCycle) {
        nextSanitizeCycle = _cycle + opts.sanitizeEveryCycles;
        sanitizeCheck();
    }

    if (nextOpcacheFlush && _cycle >= nextOpcacheFlush) {
        opCaches.invalidateAll();
        faults->noteOpcacheFlush();
        const std::uint64_t p = faults->plan().opcacheFlushPeriod;
        while (nextOpcacheFlush <= _cycle)
            nextOpcacheFlush += p;
    }
}

void
Simulator::sanitizeCheck() const
{
    const std::uint64_t nf = fus.size();

    // (a) Stall conservation at every roll-up level. At the top of a
    // cycle every unit has been charged exactly once per executed
    // cycle, so each FU's buckets sum to _cycle exactly.
    if (stallCountsTotal(_stats.stallsTotal) != _cycle * nf)
        throw SimError(SimErrorKind::InvariantViolation, _cycle,
                       strCat("sanitize: machine stall buckets sum to ",
                              stallCountsTotal(_stats.stallsTotal),
                              ", expected cycles*numFus = ",
                              _cycle * nf, " {",
                              formatStallCounts(_stats.stallsTotal),
                              "}"));
    StallCounts roll{};
    for (std::size_t fu = 0; fu < nf; ++fu) {
        if (stallCountsTotal(_stats.stallsByFu[fu]) != _cycle)
            throw SimError(SimErrorKind::InvariantViolation, _cycle,
                           strCat("sanitize: fu ", fu,
                                  " stall buckets sum to ",
                                  stallCountsTotal(
                                      _stats.stallsByFu[fu]),
                                  ", expected ", _cycle));
        if (_stats.stallsByFu[fu][static_cast<int>(
                StallCause::Issued)] != _stats.opsByFu[fu])
            throw SimError(SimErrorKind::InvariantViolation, _cycle,
                           strCat("sanitize: fu ", fu,
                                  " issued bucket disagrees with its "
                                  "op count"));
        for (int k = 0; k < numStallCauses; ++k)
            roll[k] += _stats.stallsByFu[fu][k];
    }
    StallCounts clusterRoll{};
    for (const auto& c : _stats.stallsByCluster)
        for (int k = 0; k < numStallCauses; ++k)
            clusterRoll[k] += c[k];
    for (int k = 0; k < numStallCauses; ++k)
        if (roll[k] != _stats.stallsTotal[k] ||
                clusterRoll[k] != _stats.stallsTotal[k])
            throw SimError(SimErrorKind::InvariantViolation, _cycle,
                           strCat("sanitize: stall roll-ups disagree "
                                  "in bucket ",
                                  stallCauseName(
                                      static_cast<StallCause>(k))));

    // (b) Pipeline and writeback population counters.
    std::size_t wheelPop = 0;
    for (const auto& b : wheel)
        wheelPop += b.size();
    if (wheelPop != inFlightCount)
        throw SimError(SimErrorKind::InvariantViolation, _cycle,
                       strCat("sanitize: completion wheel holds ",
                              wheelPop, " result(s) but inFlightCount "
                              "is ", inFlightCount));
    std::size_t wbPop = 0;
    for (const auto& q : wbByThread)
        wbPop += q.size();
    if (wbPop != wbCount)
        throw SimError(SimErrorKind::InvariantViolation, _cycle,
                       strCat("sanitize: writeback queues hold ",
                              wbPop, " entry(ies) but wbCount is ",
                              wbCount));
    std::vector<int> nonEmpty;
    for (std::size_t th = 0; th < wbByThread.size(); ++th)
        if (!wbByThread[th].empty())
            nonEmpty.push_back(static_cast<int>(th));
    if (nonEmpty != wbPending)
        throw SimError(SimErrorKind::InvariantViolation, _cycle,
                       strCat("sanitize: ", nonEmpty.size(),
                              " writeback queue(s) hold entries but the "
                              "pending list names ", wbPending.size(),
                              " thread(s), or not in ascending order"));

    // (c) Scoreboard presence bits: every cleared bit must have a
    // pending producer — a result in the wheel, a queued writeback,
    // or an outstanding memory reference. A cleared bit nobody will
    // ever set again is a silent deadlock in the making.
    for (const auto& tp : threads) {
        const ThreadContext& t = *tp;
        const RegisterSet& regs = t.regs();
        for (int c = 0; c < regs.numClusters(); ++c) {
            for (std::uint32_t i = 0; i < regs.frameSize(c); ++i) {
                isa::RegRef r;
                r.cluster = static_cast<std::uint16_t>(c);
                r.index = static_cast<std::uint16_t>(i);
                if (regs.isValid(r))
                    continue;
                bool pending = mem->hasPendingWrite(t.id(), r);
                for (const auto& e :
                     wbByThread[static_cast<std::size_t>(t.id())]) {
                    if (pending)
                        break;
                    pending = e.dst == r;
                }
                for (const auto& b : wheel) {
                    if (pending)
                        break;
                    for (const auto& res : b) {
                        if (res.thread != t.id())
                            continue;
                        for (const auto& d : res.dsts)
                            if (d == r) {
                                pending = true;
                                break;
                            }
                        if (pending)
                            break;
                    }
                }
                if (!pending)
                    throw SimError(
                        SimErrorKind::InvariantViolation, _cycle,
                        strCat("sanitize: thread ", t.id(),
                               " register ", r.toString(),
                               " is invalid with no pending producer "
                               "(orphaned presence bit)"));
            }
        }
    }

    // (d) Memory-system full/empty and parking invariants.
    mem->sanitize(_cycle);
}

void
Simulator::checkDeadlock()
{
    if (finished() || progressThisCycle)
        return;
    if (_cycle - lastProgressCycle >
            static_cast<std::uint64_t>(deadlockCycleLimit))
        reportDeadlock();
}

void
Simulator::reportDeadlock()
{
    std::string s = strCat("deadlock at cycle ", _cycle, ": ");
    s += strCat(mem->parkedCount(), " parked memory reference(s); ");
    s += strCat("stalls{", formatStallCounts(_stats.stallsTotal),
                "}; ");
    for (const auto& t : threads) {
        if (t->state() != ThreadState::Active)
            continue;
        s += strCat("[thread ", t->id(), " '", t->code().name,
                    "' ip=", t->ip());
        const auto& inst = t->currentInstruction();
        for (std::size_t i = 0; i < inst.slots.size(); ++i) {
            if (t->slotIssued(i))
                continue;
            const Operation& op = inst.slots[i].op;
            s += strCat(" waiting:", op.toString());
            s += operandsReady(*t, op)
                     ? "{ready}"
                     : strCat("{",
                              stallCauseName(
                                  classifyOperandStall(*t, op)),
                              "}");
        }
        s += "] ";
    }
    throw SimError(SimErrorKind::Deadlock, _cycle, s);
}

RunStats
Simulator::run()
{
    while (step()) {
    }
    if (opts.sanitizeEveryCycles > 0)
        sanitizeCheck();
    return stats();
}

RunStats
Simulator::stats() const
{
    RunStats out = _stats;
    out.cycles = _cycle;
    const auto& ms = mem->stats();
    out.memAccesses = ms.accesses;
    out.memHits = ms.hits;
    out.memMisses = ms.misses;
    out.memParked = ms.parked;
    out.memParkedCycles = ms.parkedCycles;
    out.memBankDelayCycles = ms.bankDelayCycles;
    out.opCacheHits = opCaches.stats().hits;
    out.opCacheMisses = opCaches.stats().misses;
    out.opCacheLineWaitCycles = opCaches.stats().lineWaitCycles;
    out.wbGrantsByCluster = network.stats().grantsByCluster;
    out.wbDenialsByCluster = network.stats().denialsByCluster;
    if (faults) {
        out.faultsEnabled = true;
        out.faults = faults->counts();
    }

    out.threads.clear();
    for (const auto& t : threads) {
        ThreadStats ts;
        ts.name = t->code().name;
        ts.spawnCycle = t->spawnCycle();
        ts.endCycle = t->endCycle();
        ts.opsIssued = t->opsIssued();
        ts.stalls = threadStalls[static_cast<std::size_t>(t->id())];
        out.threads.push_back(ts);
    }
    return out;
}

} // namespace sim
} // namespace procoup
