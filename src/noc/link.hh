/**
 * @file
 * A point-to-point interconnect link with latency, serialization
 * bandwidth and a bounded queue. Links form the GPU-internal network
 * and the system NoC (paper Fig. 1, elements 3-5). Response paths are modelled as latency only
 * (gem5 "classic" network style).
 */

#ifndef EMERALD_NOC_LINK_HH
#define EMERALD_NOC_LINK_HH

#include <deque>

#include "sim/packet.hh"
#include "sim/sim_object.hh"

namespace emerald::noc
{

/** Link configuration. */
struct LinkParams
{
    /** Fixed traversal latency. */
    Tick latency = ticksFromNs(4.0);
    /** Serialization bandwidth, bytes per second (0 = infinite). */
    double bytesPerSec = 16e9;
    /** Queued packets before upstream is back-pressured. */
    unsigned queueDepth = 16;
};

/**
 * Unidirectional request link delivering into a MemSink. When the
 * target rejects the head packet the link registers for a retry and
 * sleeps; when the link's own queue fills it queues the rejected
 * upstream requestor and wakes it as slots drain.
 */
class Link : public SimObject, public MemSink, public MemRequestor
{
  public:
    Link(Simulation &sim, const std::string &name,
         const LinkParams &params);

    void setTarget(MemSink &target) { _target = &target; }

    bool tryAccept(MemPacket *pkt) override;
    void retryRequest() override;

    std::size_t queueDepth() const { return _queue.size(); }

    /** True while parked on the target's retry list. */
    bool blocked() const { return _blocked; }

    void hangDiagnostics(std::ostream &os) const override;

    void serialize(CheckpointIo &io) override;

    /** @{ Statistics. */
    Scalar statPackets;
    Scalar statBytes;
    Scalar statRetries;
    /** @} */

  private:
    void deliver();

    LinkParams _params;
    MemSink *_target = nullptr;

    struct Item
    {
        MemPacket *pkt;
        Tick readyAt;
    };

    std::deque<Item> _queue;
    Tick _serializerFree = 0;
    /** Target rejected our head; waiting for retryRequest(). */
    bool _blocked = false;
    EventFunction _deliverEvent;
};

} // namespace emerald::noc

#endif // EMERALD_NOC_LINK_HH
