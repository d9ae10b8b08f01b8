#include "soc/cpu_traffic.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/simulation.hh"

namespace emerald::soc
{

CpuCoreModel::CpuCoreModel(Simulation &sim, const std::string &name,
                           ClockDomain &cpu_clock,
                           const CpuCoreParams &params,
                           MemSink &downstream)
    : SimObject(sim, name),
      statRequests(*this, "requests", "memory requests issued"),
      statQuotas(*this, "quotas", "work quotas completed"),
      statLatency(*this, "latency", "load-to-use latency (ticks)"),
      _params(params), _clock(cpu_clock), _downstream(downstream),
      _cursor(params.regionBase),
      _rng(params.seed ^ (0x9e37 + params.coreId)),
      _issueEvent([this] { issueOne(); }, name + ".issue")
{
    registerCheckpointEvent(_issueEvent);
    registerCheckpointClient(*this);
    registerCheckpointRequestor(*this);
}

void
CpuCoreModel::serialize(CheckpointIo &io)
{
    io.scalar("quota_remaining", _quotaRemaining);
    // The callback itself is a lambda owned by the AppModel: a core
    // restored mid-quota gets only the flag, and AppModel::serialize
    // re-installs the callback (see rebindQuotaCallback).
    bool has_quota_done = static_cast<bool>(_quotaDone);
    io.scalar("has_quota_done", has_quota_done);
    if (has_quota_done && !_quotaDone)
        _quotaDonePending = true;
    io.scalar("background", _background);
    io.scalar("outstanding", _outstanding);
    bool has_retry_pkt = _retryPkt != nullptr;
    io.scalar("has_retry_pkt", has_retry_pkt);
    if (has_retry_pkt) {
        io.packet("retry_pkt", _retryPkt);
        io.scalar("retry_quota", _retryQuota);
    }
    io.scalar("cursor", _cursor);
    auto rng = _rng.state();
    io.column("rng", rng);
    _rng.setState(rng);
}

void
CpuCoreModel::runQuota(std::uint64_t requests,
                       std::function<void()> on_done)
{
    panic_if(_quotaRemaining > 0, "%s: overlapping quotas",
             name().c_str());
    if (requests == 0) {
        if (on_done)
            on_done();
        return;
    }
    _quotaRemaining = requests;
    _quotaDone = std::move(on_done);
    trySchedule();
}

void
CpuCoreModel::setBackground(bool enabled)
{
    _background = enabled;
    if (enabled)
        trySchedule();
}

Addr
CpuCoreModel::nextAddr()
{
    if (_rng.chance(_params.locality)) {
        _cursor += 64;
        if (_cursor >= _params.regionBase + _params.regionBytes)
            _cursor = _params.regionBase;
    } else {
        _cursor = _params.regionBase +
                  (_rng.next() % (_params.regionBytes / 64)) * 64;
    }
    return _cursor;
}

void
CpuCoreModel::trySchedule()
{
    if (_issueEvent.scheduled() || _retryPkt)
        return;
    bool want_issue =
        (_quotaRemaining > 0 &&
         _outstanding < _params.maxOutstanding) ||
        (_background && _quotaRemaining == 0 &&
         _outstanding < _params.backgroundOutstanding);
    if (!want_issue)
        return;
    Cycle delay = _quotaRemaining > 0 ? _params.thinkCycles
                                      : _params.backgroundInterval;
    if (delay == 0)
        delay = 1;
    schedule(_issueEvent, _clock.clockEdge(delay));
}

void
CpuCoreModel::issueOne()
{
    bool quota = _quotaRemaining > 0;
    if ((!quota && !_background) || _retryPkt)
        return;
    if (_outstanding >= _params.maxOutstanding) {
        return; // Response path will reschedule.
    }

    bool write = _rng.chance(_params.writeFraction);
    MemPacket *pkt = sim().packetPool().alloc(
        nextAddr(), 64, write, TrafficClass::Cpu, AccessKind::CpuData,
        static_cast<int>(_params.coreId), this, 0);
    pkt->issued = curTick();
    // Count before offering: the sink may respond synchronously.
    ++_outstanding;
    if (!_downstream.offer(pkt, *this)) {
        // Cache busy: hold the packet (window slot stays reserved)
        // until the cache's retryRequest() wakes us; no polling.
        _retryPkt = pkt;
        _retryQuota = quota;
        return;
    }
    requestAccepted(quota);
}

void
CpuCoreModel::requestAccepted(bool quota)
{
    ++statRequests;
    if (quota)
        --_quotaRemaining;

    // A synchronous response may have drained the window already.
    maybeCompleteQuota();
    // Pipeline more requests up to the outstanding window.
    trySchedule();
}

void
CpuCoreModel::retryRequest()
{
    if (!_retryPkt) {
        trySchedule();
        return;
    }
    MemPacket *pkt = _retryPkt;
    _retryPkt = nullptr;
    if (!_downstream.offer(pkt, *this)) {
        _retryPkt = pkt;
        return;
    }
    bool quota = _retryQuota;
    _retryQuota = false;
    requestAccepted(quota);
}

void
CpuCoreModel::maybeCompleteQuota()
{
    if (_quotaRemaining == 0 && _outstanding == 0 && _quotaDone) {
        ++statQuotas;
        auto done = std::move(_quotaDone);
        _quotaDone = nullptr;
        done();
    }
}

void
CpuCoreModel::memResponse(MemPacket *pkt)
{
    statLatency.sample(static_cast<double>(curTick() - pkt->issued));
    freePacket(pkt);
    panic_if(_outstanding == 0, "CPU response underflow");
    --_outstanding;

    maybeCompleteQuota();
    trySchedule();
}

} // namespace emerald::soc
