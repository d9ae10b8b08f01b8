#include "noc/link.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/simulation.hh"

namespace emerald::noc
{

Link::Link(Simulation &sim, const std::string &name,
           const LinkParams &params)
    : SimObject(sim, name), MemSink(sim),
      statPackets(*this, "packets", "packets forwarded"),
      statBytes(*this, "bytes", "bytes forwarded"),
      statRetries(*this, "retries", "deliveries retried (target busy)"),
      _params(params),
      _deliverEvent([this] { deliver(); }, name + ".deliver")
{
    setSinkName(name);
    registerCheckpointEvent(_deliverEvent);
    registerCheckpointRequestor(*this);
}

bool
Link::tryAccept(MemPacket *pkt)
{
    if (_queue.size() >= _params.queueDepth)
        return false;

    Tick now = curTick();
    Tick ser = 0;
    if (_params.bytesPerSec > 0.0) {
        ser = static_cast<Tick>(
            pkt->size / _params.bytesPerSec * ticksPerSecond);
    }
    Tick start = std::max(now, _serializerFree);
    _serializerFree = start + ser;
    Tick ready = _serializerFree + _params.latency;

    // Fault seam: link-delay sites add latency to this traversal
    // (congested hop / marginal lane model). Delivery order within
    // the link is preserved — the queue drains head-first regardless.
    if (auto *inj = sim().faultInjector())
        ready += inj->extraLinkDelay(name());

    _queue.push_back({pkt, ready});
    ++statPackets;
    statBytes += pkt->size;

    if (!_blocked && !_deliverEvent.scheduled())
        schedule(_deliverEvent, ready);
    return true;
}

void
Link::deliver()
{
    panic_if(!_target, "%s has no target", name().c_str());
    Tick now = curTick();
    bool drained = false;
    while (!_queue.empty() && _queue.front().readyAt <= now) {
        if (!_target->offer(_queue.front().pkt, *this)) {
            // Target queued us; it calls retryRequest() when a slot
            // frees. Later queue entries wait behind the head.
            ++statRetries;
            _blocked = true;
            break;
        }
        _queue.pop_front();
        drained = true;
    }
    if (!_blocked && !_queue.empty() && !_deliverEvent.scheduled())
        schedule(_deliverEvent, _queue.front().readyAt);
    if (drained) {
        while (_queue.size() < _params.queueDepth &&
               wakeOneRetryChecked()) {
        }
    }
}

void
Link::retryRequest()
{
    _blocked = false;
    deliver();
}

void
Link::serialize(CheckpointIo &io)
{
    io.sequence("num_queue", "q", _queue,
                [&](const std::string &key, Item &item) {
                    io.packet(key, item.pkt);
                    io.scalar(key + ".ready_at", item.readyAt);
                });
    io.scalar("serializer_free", _serializerFree);
    io.scalar("blocked", _blocked);
    retryList().serialize(io, "retry");
}

void
Link::hangDiagnostics(std::ostream &os) const
{
    if (_queue.empty() && !_blocked)
        return;
    os << "queue=" << _queue.size() << "/" << _params.queueDepth
       << (_blocked ? " BLOCKED on target" : "");
}

} // namespace emerald::noc
