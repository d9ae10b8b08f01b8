#include "npu/dma.hh"

#include <vector>

#include "mem/traffic_trace.hh"
#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/simulation.hh"

namespace emerald::npu
{

NpuDmaEngine::NpuDmaEngine(Simulation &sim, const std::string &name,
                           const NpuDmaParams &params,
                           MemSink &downstream)
    : SimObject(sim, name),
      statBytesRead(*this, "bytes_read", "bytes DMAed from memory"),
      statBytesWritten(*this, "bytes_written",
                       "bytes DMAed to memory"),
      statRequests(*this, "requests", "packets issued"),
      statTransfers(*this, "transfers", "transfers completed"),
      statAborts(*this, "aborts",
                 "transfers abandoned by degrade recovery"),
      statTransferTicks(*this, "transfer_ticks",
                        "transfer latency (ticks)"),
      _params(params), _downstream(downstream)
{
    fatal_if(_params.maxOutstanding == 0 || _params.burstBytes == 0,
             "%s: degenerate DMA parameters", name.c_str());
    registerProfileCounters();
    registerCheckpointClient(*this);
    registerCheckpointRequestor(*this);
}

void
NpuDmaEngine::startTransfer(Addr base, std::uint64_t bytes,
                            bool write, std::uint64_t token)
{
    panic_if(bytes == 0, "%s: zero-byte transfer", name().c_str());
    Transfer t;
    t.base = base;
    t.bytes = bytes;
    t.write = write;
    t.token = token;
    t.start = curTick();
    t.id = _nextId++;
    _transfers.push_back(t);
    pump();
}

NpuDmaEngine::Transfer *
NpuDmaEngine::findById(std::uint64_t id)
{
    for (Transfer &t : _transfers)
        if (t.id == id)
            return &t;
    return nullptr;
}

void
NpuDmaEngine::pump()
{
    if (_pumping || _retryPkt)
        return;
    _pumping = true;
    while (_outstanding < _params.maxOutstanding) {
        // Issue strictly in submission order: the earliest transfer
        // that still has unissued bytes.
        Transfer *t = nullptr;
        for (Transfer &cand : _transfers) {
            if (cand.issued < cand.bytes) {
                t = &cand;
                break;
            }
        }
        if (!t)
            break;
        unsigned chunk = static_cast<unsigned>(
            std::min<std::uint64_t>(_params.burstBytes,
                                    t->bytes - t->issued));
        MemPacket *pkt = sim().packetPool().alloc(
            t->base + t->issued, chunk, t->write, TrafficClass::Npu,
            AccessKind::NpuData, npuRequestorId, this, t->id);
        pkt->issued = curTick();
        Addr addr = pkt->addr;
        bool write = t->write;
        // Count the slot and the bytes before offering: a zero-latency
        // sink may respond synchronously from inside the offer and
        // retire (pop) the transfer before control returns here, so
        // neither t nor pkt may be touched after an accepted offer.
        ++_outstanding;
        t->issued += chunk;
        if (!_downstream.offer(pkt, *this)) {
            // Hold the packet (slot stays reserved) until the sink's
            // retryRequest() wakes us; no polling. A rejecting sink
            // never responded, so the byte count rolls back.
            t->issued -= chunk;
            _retryPkt = pkt;
            _pumping = false;
            return;
        }
        ++statRequests;
        if (_traceWriter)
            _traceWriter->record(_traceClient, curTick(), addr,
                                 AccessKind::NpuData, write);
    }
    _pumping = false;
}

void
NpuDmaEngine::dropRetryPkt()
{
    if (!_retryPkt)
        return;
    freePacket(_retryPkt);
    _retryPkt = nullptr;
    panic_if(_outstanding == 0, "%s: retry slot underflow",
             name().c_str());
    --_outstanding;
}

void
NpuDmaEngine::retryRequest()
{
    if (_retryPkt) {
        MemPacket *pkt = _retryPkt;
        _retryPkt = nullptr;
        Addr addr = pkt->addr;
        unsigned size = pkt->size;
        bool write = pkt->write;
        // Same pre-accounting as pump(): an accepted offer may
        // complete the packet (and retire its transfer)
        // synchronously, so neither t nor pkt survives it.
        Transfer *t = findById(pkt->token);
        if (t)
            t->issued += size;
        if (!_downstream.offer(pkt, *this)) {
            if (t)
                t->issued -= size;
            _retryPkt = pkt;
            return;
        }
        ++statRequests;
        if (_traceWriter)
            _traceWriter->record(_traceClient, curTick(), addr,
                                 AccessKind::NpuData, write);
    }
    pump();
}

void
NpuDmaEngine::memResponse(MemPacket *pkt)
{
    if (pkt->write)
        statBytesWritten += pkt->size;
    else
        statBytesRead += pkt->size;
    // Responses for transfers flushed by degrade recovery drain here
    // with no matching id; they only release their slot.
    if (Transfer *t = findById(pkt->token))
        t->acked += pkt->size;
    freePacket(pkt);
    panic_if(_outstanding == 0, "%s: response underflow",
             name().c_str());
    --_outstanding;
    completeFinished();
    pump();
}

void
NpuDmaEngine::completeFinished()
{
    // Retire in FIFO order so the owner sees transfer completions in
    // the order it queued them, whatever order DRAM responded in.
    while (!_transfers.empty() &&
           _transfers.front().acked == _transfers.front().bytes) {
        Transfer t = _transfers.front();
        _transfers.pop_front();
        ++statTransfers;
        statTransferTicks.sample(
            static_cast<double>(curTick() - t.start));
        if (_client)
            _client->dmaTransferDone(t.token);
    }
}

void
NpuDmaEngine::onWatchdogDegrade()
{
    // Only shed load when a burst is actually stuck; an idle or
    // healthy engine ignores the recovery sweep.
    if (!_retryPkt && _outstanding == 0)
        return;
    dropRetryPkt();
    std::vector<std::uint64_t> tokens;
    tokens.reserve(_transfers.size());
    for (const Transfer &t : _transfers)
        tokens.push_back(t.token);
    statAborts += static_cast<double>(_transfers.size());
    _transfers.clear();
    // Responses still in flight drain through memResponse() as usual;
    // notify after clearing so an abort handler can queue fresh work.
    for (std::uint64_t token : tokens) {
        if (_client)
            _client->dmaTransferAborted(token);
    }
}

void
NpuDmaEngine::hangDiagnostics(std::ostream &os) const
{
    if (!_retryPkt && _outstanding == 0 && _transfers.empty())
        return;
    os << "transfers=" << _transfers.size()
       << " outstanding=" << _outstanding << "/"
       << _params.maxOutstanding
       << (_retryPkt ? " HOLDING rejected packet" : "");
}

void
NpuDmaEngine::serialize(CheckpointIo &io)
{
    io.sequence("num_transfers", "t", _transfers,
                [&](const std::string &key, Transfer &t) {
                    io.scalar(key + ".base", t.base);
                    io.scalar(key + ".bytes", t.bytes);
                    io.scalar(key + ".write", t.write);
                    io.scalar(key + ".token", t.token);
                    io.scalar(key + ".issued", t.issued);
                    io.scalar(key + ".acked", t.acked);
                    io.scalar(key + ".start", t.start);
                    io.scalar(key + ".id", t.id);
                });
    io.scalar("next_id", _nextId);
    io.scalar("outstanding", _outstanding);
    bool has_retry_pkt = _retryPkt != nullptr;
    io.scalar("has_retry_pkt", has_retry_pkt);
    if (has_retry_pkt)
        io.packet("retry_pkt", _retryPkt);
}

} // namespace emerald::npu
