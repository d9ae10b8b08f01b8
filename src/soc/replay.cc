#include "soc/replay.hh"

#include <algorithm>

#include "gpu/simt_core.hh"
#include "mem/traffic_trace.hh"
#include "sim/logging.hh"
#include "sim/packet_pool.hh"
#include "sim/simulation.hh"

namespace emerald::soc
{

/**
 * One replay injection point: feeds one trace client's transactions
 * into the matching SIMT core's L1s, strictly in recorded order, each
 * no earlier than renderStart + its captured offset. Reads come back
 * through memResponse() (the frame cannot close while any is in
 * flight); writes are posted, as the LSU issues them. A rejected offer
 * parks the port on the L1's retry list — no polling, like every other
 * requestor in the system.
 */
class ReplayPort : public SimObject,
                   public MemClient,
                   public MemRequestor
{
  public:
    ReplayPort(Simulation &sim, const std::string &name,
               TraceReplayDriver &driver, gpu::SimtCore &core,
               const std::vector<mem::TraceTxn> &txns,
               unsigned num_frames)
        : SimObject(sim, name), _driver(driver), _core(core),
          _txns(txns),
          _issueEvent([this] { issueReady(); }, name + ".issue")
    {
        // Never checkpointed; recorded so hang reports name the port.
        registerCheckpointRequestor(*this);
        // Per-frame [begin, end) ranges. Records are chronological
        // within a client and frames begin in order, so frame ids are
        // non-decreasing; anything else is a corrupt trace.
        _ranges.assign(num_frames, {0, 0});
        std::size_t i = 0;
        for (unsigned f = 0; f < num_frames; ++f) {
            std::size_t begin = i;
            while (i < _txns.size() && _txns[i].frame == f)
                ++i;
            _ranges[f] = {begin, i};
        }
        fatal_if(i != _txns.size(),
                 "%s: trace records out of frame order",
                 name.c_str());
    }

    /** Start injecting frame @p frame; its offsets are relative to
     * @p render_start. Completion is reported via the driver. */
    void
    beginFrame(unsigned frame, Tick render_start)
    {
        _frameBegin = _ranges.at(frame).first;
        _frameEnd = _ranges.at(frame).second;
        _next = _frameBegin;
        _renderStart = render_start;
        _frameActive = true;
        // Enter through the event queue so the driver's begin-render
        // loop never re-enters frame completion mid-iteration.
        schedule(_issueEvent, nextIssueTick());
    }

    /** Transactions of the current frame already handed to an L1. */
    std::uint64_t frameIssued() const { return _next - _frameBegin; }
    std::uint64_t frameTotal() const { return _frameEnd - _frameBegin; }

    void
    setCapture(mem::TrafficTraceWriter *writer, unsigned client)
    {
        _writer = writer;
        _client = client;
    }

    void
    memResponse(MemPacket *pkt) override
    {
        panic_if(_outstanding == 0, "%s: unexpected response %s",
                 name().c_str(), pkt->toString().c_str());
        freePacket(pkt);
        --_outstanding;
        maybeFrameDone();
    }

    void
    retryRequest() override
    {
        if (!_retryPkt)
            return; // Spurious wakeup.
        MemPacket *pkt = _retryPkt;
        _retryPkt = nullptr;
        const mem::TraceTxn &txn = _txns[_next];
        if (!_core.l1ForKind(txn.kind).offer(pkt, *this)) {
            _retryPkt = pkt;
            return;
        }
        accepted(txn);
        issueReady();
    }

    /** See TraceReplayDriver::serialize(). */
    void
    serialize(CheckpointIo &io) override
    {
        (void)io;
        panic("%s: replay ports cannot be checkpointed",
              name().c_str());
    }

    void
    hangDiagnostics(std::ostream &os) const override
    {
        if (!_frameActive)
            return;
        os << name() << ": txn " << frameIssued() << "/"
           << frameTotal() << " of frame, " << _outstanding
           << " reads in flight"
           << (_retryPkt ? ", head blocked on L1" : "") << "\n";
    }

  private:
    /** Injection loop: issue every due transaction, then either park
     * (blocked/ahead of time) or close out the frame. */
    void
    issueReady()
    {
        while (_next < _frameEnd) {
            const mem::TraceTxn &txn = _txns[_next];
            Tick when = _renderStart + txn.offset;
            if (when > curTick()) {
                schedule(_issueEvent, when);
                return;
            }
            auto *pkt = sim().packetPool().alloc(
                txn.addr, _core.params().l1d.lineSize, txn.write,
                TrafficClass::Gpu, txn.kind, gpu::gpuRequestorId,
                txn.write ? nullptr : this, 0);
            if (!_core.l1ForKind(txn.kind).offer(pkt, *this)) {
                _retryPkt = pkt;
                return;
            }
            accepted(txn);
        }
        maybeFrameDone();
    }

    Tick
    nextIssueTick() const
    {
        if (_next >= _frameEnd)
            return curTick();
        return std::max(curTick(), _renderStart + _txns[_next].offset);
    }

    void
    accepted(const mem::TraceTxn &txn)
    {
        if (_writer) {
            _writer->record(_client, curTick(), txn.addr, txn.kind,
                            txn.write);
        }
        if (!txn.write)
            ++_outstanding;
        ++_next;
        ++_driver.statReplayedTxns;
    }

    void
    maybeFrameDone()
    {
        if (_frameActive && _next == _frameEnd && _outstanding == 0) {
            _frameActive = false;
            _driver.portFrameDone();
        }
    }

    TraceReplayDriver &_driver;
    gpu::SimtCore &_core;
    const std::vector<mem::TraceTxn> &_txns;
    /** Per-frame [begin, end) index ranges into _txns. */
    std::vector<std::pair<std::size_t, std::size_t>> _ranges;

    std::size_t _frameBegin = 0;
    std::size_t _frameEnd = 0;
    std::size_t _next = 0;
    Tick _renderStart = 0;
    bool _frameActive = false;
    /** Reads handed to an L1 whose responses are still in flight. */
    unsigned _outstanding = 0;
    /** Head transaction's packet, held across an L1 rejection. */
    MemPacket *_retryPkt = nullptr;

    mem::TrafficTraceWriter *_writer = nullptr;
    unsigned _client = 0;

    EventFunction _issueEvent;
};

TraceReplayDriver::TraceReplayDriver(
    Simulation &sim, const std::string &name, const AppParams &params,
    const mem::TrafficTraceReader &trace, gpu::GpuTop &gpu,
    std::vector<CpuCoreModel *> cores, mem::DashCoordinator *dash,
    std::function<void()> on_all_frames_done)
    : AppModel(sim, name, params, std::move(cores), dash,
               std::move(on_all_frames_done)),
      statReplayedTxns(*this, "txns", "trace transactions injected"),
      _trace(trace)
{
    registerProfileCounters();
    fatal_if(trace.numFrames() < params.frames,
             "replay trace '%s' holds %u frames but the run wants %u",
             trace.dir().c_str(), trace.numFrames(), params.frames);
    // Match trace client streams to SIMT cores by name: traces
    // captured with extra clients (e.g. the NPU DMA boundary) stay
    // replayable — replay drives only the GPU streams, everything
    // else in the trace is observational.
    for (unsigned i = 0; i < gpu.numCores(); ++i) {
        const std::string &core_name = gpu.core(i).name();
        int client = -1;
        for (unsigned c = 0; c < trace.numClients(); ++c) {
            if (trace.clientName(c) == core_name) {
                client = static_cast<int>(c);
                break;
            }
        }
        fatal_if(client < 0,
                 "replay trace '%s' has no client stream for core "
                 "'%s' (%u clients in trace)",
                 trace.dir().c_str(), core_name.c_str(),
                 trace.numClients());
        _ports.push_back(std::make_unique<ReplayPort>(
            sim, name + ".p" + std::to_string(i), *this, gpu.core(i),
            trace.clientTxns(static_cast<unsigned>(client)),
            trace.numFrames()));
    }
}

TraceReplayDriver::~TraceReplayDriver() = default;

void
TraceReplayDriver::serialize(CheckpointIo &io)
{
    (void)io;
    panic("%s: replay runs cannot be checkpointed (the builder "
          "rejects --replay-trace with --checkpoint-at/--restore)",
          name().c_str());
}

void
TraceReplayDriver::setTraceCapture(mem::TrafficTraceWriter *writer)
{
    AppModel::setTraceCapture(writer);
    for (auto &port : _ports) {
        unsigned client = writer ? writer->addClient(port->name()) : 0;
        port->setCapture(writer, client);
    }
}

void
TraceReplayDriver::renderFrame(unsigned idx)
{
    _frame = idx;
    _portsPending = static_cast<unsigned>(_ports.size());
    for (auto &port : _ports)
        port->beginFrame(idx, curTick());
}

double
TraceReplayDriver::renderProgress() const
{
    // Injection progress is the only observable the replay has; scale
    // the frame's recorded work by it.
    std::uint64_t issued = 0, total = 0;
    for (const auto &port : _ports) {
        issued += port->frameIssued();
        total += port->frameTotal();
    }
    double work = _trace.frameWork(_frame);
    return total > 0 ? work * (static_cast<double>(issued) /
                               static_cast<double>(total))
                     : work;
}

void
TraceReplayDriver::portFrameDone()
{
    panic_if(_portsPending == 0, "frame over-completion");
    if (--_portsPending == 0)
        renderDone(_trace.frameWork(_frame));
}

} // namespace emerald::soc
