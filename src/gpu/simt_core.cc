#include "gpu/simt_core.hh"

#include <bit>

#include "mem/traffic_trace.hh"
#include "sim/fnv.hh"
#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/simulation.hh"

namespace emerald::gpu
{

using isa::Instruction;
using isa::LatencyClass;
using isa::Opcode;

SimtCore::SimtCore(Simulation &sim, const std::string &name,
                   ClockDomain &domain, const SimtCoreParams &params,
                   MemSink &downstream)
    : SimObject(sim, name), Clocked(domain, name),
      statCyclesActive(*this, "cycles_active",
                       "cycles with work resident"),
      statCyclesMemWait(*this, "cycles_mem_wait",
                        "cycles asleep with work resident, waiting "
                        "on memory"),
      statWarpInstrs(*this, "warp_instrs", "warp instructions issued"),
      statThreadInstrs(*this, "thread_instrs",
                       "thread instructions executed"),
      statTasksVertex(*this, "tasks_vertex", "vertex warps run"),
      statTasksFragment(*this, "tasks_fragment", "fragment warps run"),
      statTasksCompute(*this, "tasks_compute", "compute warps run"),
      statStallNoReadyWarp(*this, "stall_no_ready_warp",
                           "scheduler cycles with no ready warp"),
      statLsuStalls(*this, "lsu_stalls",
                    "LSU sends blocked pending an L1 retry"),
      statQuietTicks(*this, "quiet_ticks",
                     "ticks that retired no writeback, launched no "
                     "task, issued nothing, offered no LSU packet and "
                     "finished no warp"),
      _params(params), _downstream(downstream),
      _warps(params.maxWarps), _scoreboard(params.maxWarps)
{
    // One bit per slot in the issue-blocked mask.
    fatal_if(params.maxWarps > 64,
             "%s: %u warp slots configured; a SIMT core holds at most "
             "64",
             name.c_str(), params.maxWarps);
    // Each scheduler lane owns an interleaved subset of the warp
    // slots; the policy object only ever ranks its own subset.
    for (unsigned s = 0; s < params.schedulers; ++s) {
        std::vector<unsigned> owned;
        std::uint64_t owned_bits = 0;
        for (unsigned slot = s; slot < params.maxWarps;
             slot += params.schedulers) {
            owned.push_back(slot);
            owned_bits |= std::uint64_t{1} << slot;
        }
        _ownedSlots.push_back(owned_bits);
        _warpScheds.push_back(
            createWarpScheduler(params.warpSched, std::move(owned), s));
    }

    auto make_cache = [&](const char *cache_name,
                          cache::CacheParams cp) {
        cp.trafficClass = TrafficClass::Gpu;
        cp.requestorId = gpuRequestorId;
        auto c = std::make_unique<cache::Cache>(
            sim, name + "." + cache_name, domain, cp);
        c->setDownstream(downstream);
        return c;
    };
    _l1i = make_cache("l1i", params.l1i);
    _l1d = make_cache("l1d", params.l1d);
    _l1t = make_cache("l1t", params.l1t);
    _l1z = make_cache("l1z", params.l1z);
    _l1c = make_cache("l1c", params.l1c);

    registerCheckpointEvent(tickEvent());
    registerCheckpointClient(*this);
    registerCheckpointRequestor(*this);
}

void
SimtCore::serialize(CheckpointIo &io)
{
    // Checkpoints only happen at quiescent points (checkpointSafe()),
    // so resident warps, LSU state and scoreboard entries are all
    // empty; only the allocation cursors that steer future decisions
    // need to survive.
    panic_if(!idle(), "%s: checkpoint while busy", name().c_str());
    io.column(
        "sched_cursor", _warpScheds.size(),
        [this](std::size_t s) { return _warpScheds[s]->cursorState(); },
        [this](std::size_t s, std::uint64_t cursor) {
            _warpScheds[s]->setCursorState(cursor);
        });
    io.match("warp_sched",
             std::string(_warpScheds.empty()
                             ? ""
                             : _warpScheds[0]->policyName()),
             "the warp scheduler");
    io.scalar("launch_seq", _launchSeq);
    io.vector("mem_instr_free_list", _memInstrFreeList);
    std::uint64_t num_mem_instrs = _memInstrs.size();
    io.scalar("num_mem_instrs", num_mem_instrs);
    _memInstrs.resize(num_mem_instrs);
}

bool
SimtCore::checkpointSafe() const
{
    return idle();
}

cache::Cache &
SimtCore::l1ForKind(AccessKind kind)
{
    switch (kind) {
      case AccessKind::Inst: return *_l1i;
      case AccessKind::Texture: return *_l1t;
      case AccessKind::Depth: return *_l1z;
      case AccessKind::Constant:
      case AccessKind::Vertex: return *_l1c;
      default: return *_l1d;
    }
}

bool
SimtCore::tryAddTask(WarpTask &&task)
{
    panic_if(!task.state, "%s: warp task without state", name().c_str());
    if (_taskQueue.size() >= _params.taskQueueDepth)
        return false;
    _taskQueue.push_back(std::move(task));
    activate();
    return true;
}

bool
SimtCore::idle() const
{
    return _taskQueue.empty() && _lsuQueue.empty() &&
           _writebacks.empty() && _residentWarps == 0;
}

unsigned
SimtCore::allocMemInstr(unsigned slot, const SlotList &regs,
                        bool init_fetch)
{
    unsigned id;
    if (!_memInstrFreeList.empty()) {
        id = _memInstrFreeList.back();
        _memInstrFreeList.pop_back();
    } else {
        id = static_cast<unsigned>(_memInstrs.size());
        _memInstrs.emplace_back();
    }
    MemInstrState &state = _memInstrs[id];
    state.inUse = true;
    state.slot = slot;
    state.regSlots = regs;
    state.outstanding = 0;
    state.initFetch = init_fetch;
    return id;
}

bool
SimtCore::launchQueuedTasks()
{
    bool launched = false;
    while (!_taskQueue.empty()) {
        WarpTask &task = _taskQueue.front();
        unsigned regs_needed =
            task.program->numRegs * isa::warpSize;
        if (_regsInUse + regs_needed > _params.numRegisters ||
            _threadsInUse + isa::warpSize > _params.maxThreads ||
            _residentWarps == _warps.size()) {
            return launched;
        }
        int free_slot = -1;
        for (unsigned i = 0; i < _warps.size(); ++i) {
            if (!_warps[i].valid) {
                free_slot = static_cast<int>(i);
                break;
            }
        }
        panic_if(free_slot < 0, "%s: %u resident warps but no free slot",
                 name().c_str(), _residentWarps);

        Warp &warp = _warps[static_cast<unsigned>(free_slot)];
        warp.valid = true;
        ++_residentWarps;
        unblock(static_cast<unsigned>(free_slot));
        warp.task = std::move(task);
        _taskQueue.pop_front();
        warp.stack.reset(warp.task.activeMask);
        warp.pendingInitFetch = 0;
        warp.pendingMemInstrs = 0;
        warp.atBarrier = false;
        warp.draining = false;
        warp.lastFetchLine = -1;
        warp.warpInstrsExecuted = 0;
        warp.launchSeq = _launchSeq++;
        _scoreboard.resetWarp(static_cast<unsigned>(free_slot));
        _regsInUse += regs_needed;
        _threadsInUse += isa::warpSize;

        switch (warp.task.type) {
          case WarpTaskType::Vertex: ++statTasksVertex; break;
          case WarpTaskType::Fragment: ++statTasksFragment; break;
          case WarpTaskType::Compute: ++statTasksCompute; break;
        }

        if (!warp.task.initFetch.empty()) {
            coalesce(warp.task.initFetch, _params.l1c.lineSize, _lines);
            unsigned id = allocMemInstr(
                static_cast<unsigned>(free_slot), SlotList{}, true);
            MemInstrState &state = _memInstrs[id];
            for (const CoalescedAccess &line : _lines) {
                if (line.write)
                    continue;
                ++state.outstanding;
                _lsuQueue.push_back({line.lineAddr, false,
                                     warp.task.initFetchKind,
                                     static_cast<int>(id)});
            }
            if (state.outstanding == 0) {
                state.inUse = false;
                _memInstrFreeList.push_back(id);
            } else {
                warp.pendingInitFetch = state.outstanding;
            }
        }
        launched = true;
    }
    return launched;
}

void
SimtCore::chargeInstructionFetch(Warp &warp, unsigned)
{
    std::int64_t line = warp.stack.pc() / _params.instrsPerFetchLine;
    if (line == warp.lastFetchLine)
        return;
    warp.lastFetchLine = line;
    // Synthetic instruction addresses: stable per program. Derived
    // from the program NAME, never its host pointer — heap addresses
    // vary run to run, which would leak host allocator state into L1I
    // conflict patterns and break event-stream determinism (caught by
    // the sim.check.event_hash verifier).
    std::uint64_t name_hash =
        fnv1a(fnvOffsetBasis, warp.task.program->name);
    Addr base = 0x40000000ULL ^ (name_hash & 0x0FFFF000ULL);
    Addr addr = base + static_cast<Addr>(line) * _params.l1i.lineSize;
    _lsuQueue.push_back({addr, false, AccessKind::Inst, -1});
}

void
SimtCore::executeWarp(unsigned slot)
{
    Warp &warp = _warps[slot];
    const Instruction &instr =
        warp.task.program->code[static_cast<std::size_t>(
            warp.stack.pc())];

    chargeInstructionFetch(warp, slot);

    std::uint32_t active = warp.stack.activeMask();
    executeWarpInstruction(instr, active, *warp.task.state,
                           warp.task.env, _effects);

    ++statWarpInstrs;
    statThreadInstrs += std::popcount(_effects.execMask);
    ++warp.warpInstrsExecuted;

    std::uint32_t alive = warp.task.state->alive;
    if (instr.isBranch())
        warp.stack.branch(instr, _effects.takenMask, alive);
    else
        warp.stack.advance();

    if (instr.op == Opcode::EXIT || instr.op == Opcode::DISCARD ||
        instr.op == Opcode::ZTEST) {
        warp.stack.pruneDead(alive);
    }

    // Latency / memory handling.
    LatencyClass lat = instr.latencyClass();
    SlotList dests = Scoreboard::destSlots(instr);

    auto fixed_latency = [&](Cycle cycles) {
        if (dests.empty())
            return;
        _scoreboard.markPending(slot, dests);
        Tick release = curTick() + clockDomain().cyclesToTicks(cycles);
        _writebacks.push({release, slot, dests});
    };

    switch (lat) {
      case LatencyClass::Alu:
      case LatencyClass::Control:
        fixed_latency(_params.aluLatency);
        break;
      case LatencyClass::Sfu:
        fixed_latency(_params.sfuLatency);
        break;
      case LatencyClass::MemShared:
        fixed_latency(_params.sharedMemLatency);
        break;
      case LatencyClass::MemGlobal:
      case LatencyClass::Tex:
      case LatencyClass::Rop: {
        coalesce(_effects.accesses, _params.l1d.lineSize, _lines);
        unsigned reads = 0;
        for (const CoalescedAccess &line : _lines) {
            if (!line.write)
                ++reads;
        }
        if (reads > 0) {
            unsigned id = allocMemInstr(slot, dests, false);
            _memInstrs[id].outstanding = reads;
            if (!dests.empty())
                _scoreboard.markPending(slot, dests);
            ++warp.pendingMemInstrs;
            for (const CoalescedAccess &line : _lines) {
                _lsuQueue.push_back({line.lineAddr, line.write,
                                     _effects.kind,
                                     line.write
                                         ? -1
                                         : static_cast<int>(id)});
            }
        } else {
            // Stores only (or fully predicated-off): no read deps.
            for (const CoalescedAccess &line : _lines) {
                _lsuQueue.push_back(
                    {line.lineAddr, line.write, _effects.kind, -1});
            }
            fixed_latency(_params.aluLatency);
        }
        break;
      }
    }

    if (instr.op == Opcode::BAR)
        barrierArrive(slot);

    if (warp.executionDone()) {
        warp.draining = true;
        ++_drainingWarps;
    }
}

void
SimtCore::barrierArrive(unsigned slot)
{
    Warp &warp = _warps[slot];
    if (warp.task.ctaKey < 0 || warp.task.ctaWarps <= 1)
        return; // Degenerate barrier: nothing to wait for.
    warp.atBarrier = true;
    // A CTA's warps all run on this core and cannot issue while at the
    // barrier, so the CTA's resident warps at the barrier are exactly
    // those that arrived since it last released.
    unsigned arrived = 0;
    for (const Warp &other : _warps) {
        if (other.valid && other.atBarrier &&
            other.task.ctaKey == warp.task.ctaKey) {
            ++arrived;
        }
    }
    if (arrived < warp.task.ctaWarps)
        return;
    for (unsigned other = 0; other < _warps.size(); ++other) {
        if (_warps[other].valid &&
            _warps[other].task.ctaKey == warp.task.ctaKey) {
            _warps[other].atBarrier = false;
            unblock(other);
        }
    }
}

bool
SimtCore::issueFrom(unsigned scheduler)
{
    // The checks below read only one warp and its scoreboard, so a
    // slot that failed them fails again until its _issueBlocked bit
    // is cleared; the first ready slot in the policy's order is the
    // same either way, and a lane whose every slot is blocked has
    // none. Ranking has no side effects, so it can be skipped.
    const std::uint64_t owned = _ownedSlots[scheduler];
    if ((_issueBlocked & owned) == owned)
        return false;
    // The policy ranks only the slots this lane owns — O(warps /
    // schedulers) per lane instead of the old O(warps) scan over the
    // whole array with a modulo ownership filter.
    WarpScheduler &sched = *_warpScheds[scheduler];
    sched.order(_warps, _orderBuf);
    for (unsigned slot : _orderBuf) {
        const std::uint64_t bit = std::uint64_t{1} << slot;
        if (_issueBlocked & bit)
            continue;
        Warp &warp = _warps[slot];
        if (!warp.valid || warp.draining || warp.atBarrier ||
            warp.pendingInitFetch > 0 ||
            warp.pendingMemInstrs >=
                _params.maxPendingMemInstrsPerWarp ||
            warp.stack.empty()) {
            _issueBlocked |= bit;
            continue;
        }
        int pc = warp.stack.pc();
        if (pc < 0 ||
            pc >= static_cast<int>(warp.task.program->code.size())) {
            panic("%s: warp pc %d out of range in %s", name().c_str(),
                  pc, warp.task.program->name.c_str());
        }
        const Instruction &instr =
            warp.task.program->code[static_cast<std::size_t>(pc)];
        if (!_scoreboard.ready(slot, instr)) {
            _issueBlocked |= bit;
            continue;
        }
        executeWarp(slot);
        sched.issued(slot);
        return true;
    }
    return false;
}

bool
SimtCore::drainLsu()
{
    if (_lsuRetryPkt)
        return false; // Head is blocked; the L1 wakes us when a slot frees.
    for (unsigned i = 0; i < _params.lsuIssuePerCycle; ++i) {
        if (_lsuQueue.empty())
            return i > 0;
        const LsuTxn &txn = _lsuQueue.front();
        bool posted = txn.memInstrId < 0;
        auto *pkt = sim().packetPool().alloc(
            txn.lineAddr, _params.l1d.lineSize, txn.write,
            TrafficClass::Gpu, txn.kind, gpuRequestorId,
            posted ? nullptr : this,
            posted ? 0 : static_cast<std::uint64_t>(txn.memInstrId));
        if (!l1ForKind(txn.kind).offer(pkt, *this)) {
            _lsuRetryPkt = pkt;
            ++statLsuStalls;
            return true;
        }
        if (_traceWriter) {
            _traceWriter->record(_traceClient, curTick(), txn.lineAddr,
                                 txn.kind, txn.write);
        }
        _lsuQueue.pop_front();
    }
    return _params.lsuIssuePerCycle > 0;
}

void
SimtCore::retryRequest()
{
    MemPacket *pkt = _lsuRetryPkt;
    if (!pkt) {
        activate();
        return; // Spurious wake; nothing pending.
    }
    _lsuRetryPkt = nullptr;
    const LsuTxn &txn = _lsuQueue.front();
    if (!l1ForKind(txn.kind).offer(pkt, *this)) {
        _lsuRetryPkt = pkt;
        return;
    }
    if (_traceWriter) {
        _traceWriter->record(_traceClient, curTick(), txn.lineAddr,
                             txn.kind, txn.write);
    }
    _lsuQueue.pop_front();
    activate();
}

void
SimtCore::memResponse(MemPacket *pkt)
{
    unsigned id = static_cast<unsigned>(pkt->token);
    panic_if(id >= _memInstrs.size() || !_memInstrs[id].inUse,
             "%s: response for unknown mem instr", name().c_str());
    MemInstrState &state = _memInstrs[id];
    panic_if(state.outstanding == 0, "mem instr over-completed");
    --state.outstanding;
    if (state.outstanding == 0) {
        Warp &warp = _warps[state.slot];
        if (state.initFetch) {
            warp.pendingInitFetch = 0;
        } else {
            if (!state.regSlots.empty())
                _scoreboard.release(state.slot, state.regSlots);
            panic_if(warp.pendingMemInstrs == 0,
                     "pendingMemInstrs underflow");
            --warp.pendingMemInstrs;
        }
        state.inUse = false;
        state.regSlots = {};
        _memInstrFreeList.push_back(id);
        unblock(state.slot);
    }
    freePacket(pkt);
    activate();
}

bool
SimtCore::processWritebacks()
{
    Tick now = curTick();
    bool retired = false;
    while (!_writebacks.empty() && _writebacks.top().at <= now) {
        const Writeback &wb = _writebacks.top();
        _scoreboard.release(wb.slot, wb.regs);
        unblock(wb.slot);
        _writebacks.pop();
        retired = true;
    }
    return retired;
}

bool
SimtCore::finishWarpIfDrained(unsigned slot)
{
    Warp &warp = _warps[slot];
    if (warp.pendingInitFetch > 0 || warp.pendingMemInstrs > 0 ||
        !_scoreboard.idle(slot)) {
        return false;
    }
    // Free resources before the callback so completion handlers can
    // immediately enqueue follow-up work.
    WarpTask task = std::move(warp.task);
    warp.valid = false;
    warp.draining = false;
    --_residentWarps;
    --_drainingWarps;
    _regsInUse -= task.program->numRegs * isa::warpSize;
    _threadsInUse -= isa::warpSize;
    if (task.onComplete)
        task.onComplete(*task.state);
    return true;
}

bool
SimtCore::tick()
{
    Tick now = curTick();
    if (_asleepWithWarps && now > _activeTick) {
        // The cycles slept since the last active tick had warps
        // resident and no scheduler could issue: only a memory
        // response could unblock the core, and one (or a new task)
        // has woken it.
        Cycle slept = (now - _activeTick) / clockDomain().period() - 1;
        statCyclesActive += static_cast<double>(slept);
        statCyclesMemWait += static_cast<double>(slept);
        statStallNoReadyWarp +=
            static_cast<double>(slept * _params.schedulers);
    }
    _asleepWithWarps = false;

    bool moved = processWritebacks();
    moved |= launchQueuedTasks();

    // A core woken in the cycle it went to sleep ticks twice in that
    // cycle; the cycle is active once.
    bool any_resident = _residentWarps > 0;
    if (any_resident && now != _activeTick) {
        ++statCyclesActive;
        _activeTick = now;
    }

    bool issued_any = false;
    for (unsigned s = 0; s < _params.schedulers; ++s) {
        if (issueFrom(s))
            issued_any = true;
        else if (any_resident)
            ++statStallNoReadyWarp;
    }
    moved |= issued_any;

    moved |= drainLsu();

    // Slot order, stopping after the last draining warp.
    for (unsigned slot = 0, left = _drainingWarps; left > 0; ++slot) {
        if (_warps[slot].draining) {
            --left;
            moved |= finishWarpIfDrained(slot);
        }
    }
    if (!moved)
        ++statQuietTicks;

    if (idle())
        return false;

    // Sleep while only an external event (a memory response) can
    // unblock us: nothing issued, and no local work is pending.
    // memResponse() reactivates the core. This keeps long DRAM
    // stalls (e.g. the paper's 133 Mb/s high-load scenario) from
    // costing one simulation event per idle cycle.
    bool local_work = issued_any ||
                      (!_lsuQueue.empty() && !_lsuRetryPkt) ||
                      !_writebacks.empty() || !_taskQueue.empty();
    _asleepWithWarps = !local_work && _residentWarps > 0;
    return local_work;
}

} // namespace emerald::gpu
