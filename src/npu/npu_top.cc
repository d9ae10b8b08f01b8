#include "npu/npu_top.hh"

#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/simulation.hh"

namespace emerald::npu
{

NpuTop::NpuTop(Simulation &sim, const std::string &name,
               const NpuParams &params, ClockDomain &clock,
               MemSink &downstream)
    : SimObject(sim, name),
      statCmdsCompleted(*this, "cmds", "inference commands completed"),
      statCmdsAborted(*this, "cmds_aborted",
                      "commands abandoned by degrade recovery"),
      statCmdsRejected(*this, "cmds_rejected",
                       "submissions refused (queue full)"),
      statTiles(*this, "tiles", "systolic tiles computed"),
      statComputeTicks(*this, "compute_ticks",
                       "ticks the PE grid spent computing"),
      statCmdTicks(*this, "cmd_ticks",
                   "command execution latency (ticks)"),
      statQueueWaitTicks(*this, "queue_wait_ticks",
                         "command queue wait (ticks)"),
      _params(params), _clock(clock), _timing(params.systolic),
      _tiles(_timing.tileWalk(npuModelLayers(params.model),
                              params.memBase)),
      _dma(sim, name + ".dma", params.dma, downstream),
      _queue(params.queueDepth),
      _computeEvent([this] { computeDone(); }, name + ".compute"),
      _irqEvent([this] { deliverIrq(); }, name + ".irq")
{
    fatal_if(_tiles.empty(), "%s: model '%s' produced no tiles",
             name.c_str(), params.model.c_str());
    registerProfileCounters();
    registerCheckpointEvent(_computeEvent);
    registerCheckpointEvent(_irqEvent);
    _dma.setClient(this);
}

bool
NpuTop::submit(const NpuCommand &cmd)
{
    if (!_queue.push(cmd)) {
        ++statCmdsRejected;
        return false;
    }
    if (!_active)
        startNextCommand();
    return true;
}

void
NpuTop::startNextCommand()
{
    if (_active || _queue.empty())
        return;
    _cmd = _queue.pop();
    _active = true;
    _execStart = curTick();
    ++_execSeq;
    _loadsIssued = 0;
    _loadsDone = 0;
    _tilesComputed = 0;
    _storesIssued = 0;
    _storesDone = 0;
    statQueueWaitTicks.sample(
        static_cast<double>(curTick() - _cmd.enqueued));
    pumpLoads();
}

void
NpuTop::pumpLoads()
{
    if (!_active)
        return;
    // Double buffer: the load cursor may run one tile ahead of the
    // compute cursor (tile t computing while t+1 prefetches).
    while (_loadsIssued < _tiles.size() &&
           _loadsIssued - _tilesComputed < 2) {
        const TileWork &t = _tiles[_loadsIssued];
        _dma.startTransfer(t.inAddr, t.inBytes, false,
                           token(_loadsIssued, TokInput));
        _dma.startTransfer(t.wAddr, t.wBytes, false,
                           token(_loadsIssued, TokWeight));
        ++_loadsIssued;
    }
}

void
NpuTop::dmaTransferDone(std::uint64_t token_val)
{
    if (!_active || (token_val >> 32) != _execSeq)
        return;
    switch (static_cast<TokenKind>((token_val & 0xFFFFFFFFULL) % 3)) {
      case TokInput:
        // Input slice landed; the weight slice of the same tile is
        // still in flight (the DMA completes FIFO), so the tile is
        // not loaded yet.
        break;
      case TokWeight:
        ++_loadsDone;
        maybeStartCompute();
        break;
      case TokStore:
        ++_storesDone;
        checkCommandDone();
        break;
    }
}

void
NpuTop::dmaTransferAborted(std::uint64_t token_val)
{
    // Degrade recovery flushed the DMA queue; the first notification
    // sheds the active inference, the rest belong to the same dead
    // generation and drop here.
    if (!_active || (token_val >> 32) != _execSeq)
        return;
    descheduleIfPending(_computeEvent);
    _computing = false;
    finishCommand(true);
}

void
NpuTop::maybeStartCompute()
{
    if (!_active || _computing || _tilesComputed >= _loadsDone)
        return;
    _computing = true;
    scheduleIn(_computeEvent,
               _clock.cyclesToTicks(_tiles[_tilesComputed].cycles));
}

void
NpuTop::computeDone()
{
    _computing = false;
    const TileWork &t = _tiles[_tilesComputed];
    ++_tilesComputed;
    ++statTiles;
    statComputeTicks +=
        static_cast<double>(_clock.cyclesToTicks(t.cycles));
    if (_intClient)
        _intClient->npuCommandProgress(_cmd, 1.0);
    if (t.outBytes > 0) {
        _dma.startTransfer(t.outAddr, t.outBytes, true,
                           token(_tilesComputed - 1, TokStore));
        ++_storesIssued;
    }
    pumpLoads();
    maybeStartCompute();
    checkCommandDone();
}

void
NpuTop::checkCommandDone()
{
    if (_active && _tilesComputed == _tiles.size() &&
        _storesDone == _storesIssued)
        finishCommand(false);
}

void
NpuTop::finishCommand(bool aborted)
{
    if (aborted)
        ++statCmdsAborted;
    else
        ++statCmdsCompleted;
    statCmdTicks.sample(static_cast<double>(curTick() - _execStart));
    _active = false;
    _pendingIrqs.push_back({_cmd, curTick(), aborted});
    if (!_irqEvent.scheduled())
        scheduleIn(_irqEvent, _params.irqLatency);
    startNextCommand();
}

void
NpuTop::deliverIrq()
{
    panic_if(_pendingIrqs.empty(), "%s: spurious irq",
             name().c_str());
    IrqRecord rec = _pendingIrqs.front();
    _pendingIrqs.pop_front();
    if (_intClient)
        _intClient->npuCommandDone(rec.cmd, rec.finished, rec.aborted);
    if (!_pendingIrqs.empty())
        scheduleIn(_irqEvent, _params.irqLatency);
}

void
NpuTop::hangDiagnostics(std::ostream &os) const
{
    if (!_active && _queue.empty())
        return;
    os << "active=" << _active << " queued=" << _queue.size()
       << " loads=" << _loadsDone << "/" << _loadsIssued
       << " tiles=" << _tilesComputed << "/" << _tiles.size()
       << " stores=" << _storesDone << "/" << _storesIssued
       << (_computing ? " COMPUTING" : "");
}

void
NpuTop::serialize(CheckpointIo &io)
{
    panic_if(io.loading() && _active, "%s: restore into a busy device",
             name().c_str());
    io.scalar("active", _active);
    if (_active)
        _cmd.serialize(io, "cmd");
    io.scalar("exec_start", _execStart);
    io.scalar("exec_seq", _execSeq);
    io.scalar("loads_issued", _loadsIssued);
    io.scalar("loads_done", _loadsDone);
    io.scalar("tiles_computed", _tilesComputed);
    io.scalar("stores_issued", _storesIssued);
    io.scalar("stores_done", _storesDone);
    io.scalar("computing", _computing);
    _queue.serialize(io, "queue");
    io.sequence("num_irqs", "irq", _pendingIrqs,
                [&](const std::string &key, IrqRecord &rec) {
                    rec.cmd.serialize(io, key + ".cmd");
                    io.scalar(key + ".finished", rec.finished);
                    io.scalar(key + ".aborted", rec.aborted);
                });
}

} // namespace emerald::npu
