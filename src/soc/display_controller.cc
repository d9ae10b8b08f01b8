#include "soc/display_controller.hh"

#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/simulation.hh"

namespace emerald::soc
{

DisplayController::DisplayController(Simulation &sim,
                                     const std::string &name,
                                     const DisplayParams &params,
                                     MemSink &downstream,
                                     mem::DashCoordinator *dash)
    : SimObject(sim, name),
      statFramesCompleted(*this, "frames_completed",
                          "refresh frames fully fetched"),
      statFramesAborted(*this, "frames_aborted",
                        "refresh frames aborted (underrun)"),
      statUnderruns(*this, "underruns",
                    "scanout reached an unfetched line"),
      statBytesFetched(*this, "bytes_fetched", "framebuffer bytes read"),
      statRequests(*this, "requests", "read requests issued"),
      statDroppedFrames(*this, "dropped_frames",
                        "frames abandoned by watchdog degrade recovery"),
      _params(params), _downstream(downstream), _dash(dash),
      _vsyncEvent([this] { vsync(); }, name + ".vsync"),
      _scanEvent([this] { scanLine(); }, name + ".scan")
{
    registerProfileCounters();
    if (_dash) {
        _dashIp = _dash->registerIp(name, TrafficClass::Display, 0.8);
    }
    registerCheckpointEvent(_vsyncEvent);
    registerCheckpointEvent(_scanEvent);
    registerCheckpointClient(*this);
    registerCheckpointRequestor(*this);
}

void
DisplayController::serialize(CheckpointIo &io)
{
    io.scalar("running", _running);
    io.scalar("frame_aborted", _frameAborted);
    io.scalar("scan_line", _scanLine);
    io.scalar("fetch_line", _fetchLine);
    io.scalar("fetch_packet", _fetchPacket);
    io.scalar("lines_done", _linesDone);
    io.scalar("line_resp_remaining", _lineRespRemaining);
    io.scalar("outstanding", _outstanding);
    io.scalar("underruns_this_frame", _underrunsThisFrame);
    bool has_retry_pkt = _retryPkt != nullptr;
    io.scalar("has_retry_pkt", has_retry_pkt);
    if (has_retry_pkt)
        io.packet("retry_pkt", _retryPkt);
}

unsigned
DisplayController::packetsPerLine() const
{
    return static_cast<unsigned>(
        divCeil(std::uint64_t(_params.width) * _params.bytesPerPixel,
                128));
}

void
DisplayController::start()
{
    panic_if(_running, "display already running");
    _running = true;
    _scanLine = _params.height; // No frame in progress yet.
    scheduleIn(_vsyncEvent, 0);
}

void
DisplayController::stop()
{
    _running = false;
    descheduleIfPending(_vsyncEvent);
    descheduleIfPending(_scanEvent);
    dropRetryPkt();
    if (_dash && _dashIp >= 0)
        _dash->endIpPeriod(_dashIp);
}

void
DisplayController::vsync()
{
    if (!_running)
        return;

    // Account for the frame that just ended.
    if (_scanLine >= _params.height) {
        // First vsync has no previous frame; detect via fetch state.
        if (_fetchLine > 0 || _frameAborted || _linesDone > 0) {
            if (_frameAborted)
                ++statFramesAborted;
            else
                ++statFramesCompleted;
        }
    } else {
        // Scanout still mid-frame at vsync: treat as aborted.
        ++statFramesAborted;
        descheduleIfPending(_scanEvent);
    }

    _scanLine = 0;
    _fetchLine = 0;
    _fetchPacket = 0;
    _linesDone = 0;
    _lineRespRemaining = 0;
    _underrunsThisFrame = 0;
    _frameAborted = false;
    // A packet rejected during the previous frame is stale now.
    dropRetryPkt();

    if (_dash && _dashIp >= 0) {
        _dash->beginIpPeriod(_dashIp, _params.refreshPeriod,
                             static_cast<double>(_params.height));
    }

    // Scanout of line i happens mid-slot so the final line lands
    // before the next vsync.
    Tick line_period = _params.refreshPeriod / _params.height;
    scheduleIn(_scanEvent, line_period / 2);
    scheduleIn(_vsyncEvent, _params.refreshPeriod);
    pump();
}

void
DisplayController::pump()
{
    if (!_running || _frameAborted || _pumping || _retryPkt)
        return;
    _pumping = true;
    while (_outstanding < _params.maxOutstanding &&
           _fetchLine < _params.height &&
           _fetchLine <= _scanLine + _params.prefetchLines) {
        Addr line_base =
            _params.fbBase + Addr(_fetchLine) * _params.width *
                                 _params.bytesPerPixel;
        MemPacket *pkt = sim().packetPool().alloc(
            line_base + Addr(_fetchPacket) * 128, 128, false,
            TrafficClass::Display, AccessKind::Display,
            displayRequestorId, this, 0);
        pkt->issued = curTick();
        // Count before offering: a zero-latency sink may respond
        // synchronously from inside the offer.
        ++_outstanding;
        if (!_downstream.offer(pkt, *this)) {
            // Hold the packet (slot stays reserved) until the sink's
            // retryRequest() wakes us; no polling.
            _retryPkt = pkt;
            _pumping = false;
            return;
        }
        advanceFetchCursor();
    }
    _pumping = false;
}

void
DisplayController::advanceFetchCursor()
{
    ++statRequests;
    if (++_fetchPacket >= packetsPerLine()) {
        _fetchPacket = 0;
        ++_fetchLine;
    }
}

void
DisplayController::dropRetryPkt()
{
    if (!_retryPkt)
        return;
    freePacket(_retryPkt);
    _retryPkt = nullptr;
    panic_if(_outstanding == 0, "display retry slot underflow");
    --_outstanding;
}

void
DisplayController::retryRequest()
{
    if (!_running || _frameAborted) {
        dropRetryPkt();
        return;
    }
    if (_retryPkt) {
        MemPacket *pkt = _retryPkt;
        _retryPkt = nullptr;
        if (!_downstream.offer(pkt, *this)) {
            _retryPkt = pkt;
            return;
        }
        advanceFetchCursor();
    }
    pump();
}

void
DisplayController::memResponse(MemPacket *pkt)
{
    statBytesFetched += pkt->size;
    freePacket(pkt);
    panic_if(_outstanding == 0, "display response underflow");
    --_outstanding;

    // Count completed lines as responses accumulate.
    ++_lineRespRemaining;
    if (_lineRespRemaining >= packetsPerLine()) {
        _lineRespRemaining = 0;
        ++_linesDone;
        if (_dash && _dashIp >= 0)
            _dash->addIpProgress(_dashIp, 1.0);
    }
    pump();
}

void
DisplayController::onWatchdogDegrade()
{
    // Only shed load when a fetch is actually stuck; an idle or
    // healthy controller ignores the recovery sweep.
    if (!_running || _frameAborted ||
        (!_retryPkt && _outstanding == 0))
        return;
    // Mirror the underrun abort path: set the flag and let the next
    // vsync() do the frames_aborted accounting.
    ++statDroppedFrames;
    _frameAborted = true;
    dropRetryPkt();
    if (_dash && _dashIp >= 0)
        _dash->endIpPeriod(_dashIp);
    // Responses still in flight drain through memResponse() as usual;
    // the frame restarts at the next vsync.
}

void
DisplayController::hangDiagnostics(std::ostream &os) const
{
    if (!_retryPkt && _outstanding == 0)
        return;
    os << "outstanding=" << _outstanding << "/"
       << _params.maxOutstanding << " fetch_line=" << _fetchLine
       << " scan_line=" << _scanLine
       << (_retryPkt ? " HOLDING rejected packet" : "");
}

void
DisplayController::scanLine()
{
    if (!_running)
        return;
    if (!_frameAborted) {
        if (_linesDone <= _scanLine) {
            ++statUnderruns;
            ++_underrunsThisFrame;
            if (_underrunsThisFrame >= _params.abortThreshold) {
                // Give up on this frame; retry at the next refresh
                // (paper: "the display controller aborts the frame
                // and re-tries a new frame later").
                _frameAborted = true;
                if (_dash && _dashIp >= 0)
                    _dash->endIpPeriod(_dashIp);
            }
        }
    }
    ++_scanLine;
    if (_scanLine < _params.height) {
        Tick line_period = _params.refreshPeriod / _params.height;
        scheduleIn(_scanEvent, line_period);
        pump();
    }
}

} // namespace emerald::soc
