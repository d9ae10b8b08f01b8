/**
 * @file
 * A non-blocking, set-associative, write-back write-allocate cache
 * with MSHRs — the building block for the GPU's L1I/L1D/L1T/L1Z/L1C,
 * the shared GPU L2, and the CPU cache levels (paper Table 2).
 *
 * Tags only: Emerald separates function from timing, so lines carry
 * no data. Read hits respond after the hit latency; misses allocate
 * an MSHR and fetch the line from the downstream sink. Stores are
 * posted (the requestor never waits on them) but still exercise the
 * full allocate/writeback path.
 */

#ifndef EMERALD_CACHE_CACHE_HH
#define EMERALD_CACHE_CACHE_HH

#include <deque>
#include <vector>

#include "cache/mshr.hh"
#include "sim/clocked.hh"
#include "sim/packet.hh"
#include "sim/sim_object.hh"

namespace emerald::cache
{

/** Static configuration of one cache. */
struct CacheParams
{
    std::uint64_t sizeBytes = 16 * 1024;
    unsigned assoc = 4;
    unsigned lineSize = 128;
    /** Cycles from acceptance to response on a hit. */
    Cycle hitLatency = 2;
    unsigned mshrs = 16;
    unsigned targetsPerMshr = 8;
    /** Pending downstream sends (fills + writebacks). */
    unsigned sendQueueDepth = 16;
    /** Attribution of writeback traffic this cache generates. */
    TrafficClass trafficClass = TrafficClass::Gpu;
    int requestorId = 0;
};

/**
 * The cache component. Upstream components offer packets through
 * MemSink; the cache talks to its downstream sink (another cache, a
 * link, or memory) and receives fills through MemClient. When the
 * downstream sink rejects a send, the cache registers for a retry
 * (MemRequestor) instead of polling; when its own MSHRs or send queue
 * fill, it queues the rejected upstream requestor and wakes it as
 * capacity frees.
 */
class Cache : public SimObject,
              public MemSink,
              public MemClient,
              public MemRequestor
{
  public:
    Cache(Simulation &sim, const std::string &name, ClockDomain &domain,
          const CacheParams &params);

    /** Wire the cache to the next level; must precede any traffic. */
    void setDownstream(MemSink &sink) { _downstream = &sink; }

    bool tryAccept(MemPacket *pkt) override;
    void memResponse(MemPacket *pkt) override;
    void retryRequest() override;

    void hangDiagnostics(std::ostream &os) const override;

    void serialize(CheckpointIo &io) override;

    const CacheParams &params() const { return _params; }

    /** Functional lookup: would @p addr hit right now? (for tests) */
    bool isCached(Addr addr) const;

    /** Sum of demand hits and misses. */
    std::uint64_t
    accesses() const
    {
        return static_cast<std::uint64_t>(statHits.value() +
                                          statMisses.value());
    }

    double
    missRate() const
    {
        std::uint64_t a = accesses();
        return a ? statMisses.value() / static_cast<double>(a) : 0.0;
    }

    /** @{ Statistics. */
    Scalar statHits;
    Scalar statMisses;
    Scalar statMshrMerges;
    Scalar statWritebacks;
    Scalar statRejects;
    /** @} */

  private:
    /**
     * The tag of an invalid way. Line addresses are multiples of the
     * line size (at least 2), so none is all ones.
     */
    static constexpr Addr invalidTag = ~Addr(0);

    Addr lineAddrOf(Addr addr) const
    {
        return addr & ~static_cast<Addr>(_params.lineSize - 1);
    }
    std::size_t
    setIndex(Addr line_addr) const
    {
        return static_cast<std::size_t>(line_addr >> _lineShift) &
               (_numSets - 1);
    }

    /** Find the way (index into _tags) holding @p line_addr, or -1. */
    std::ptrdiff_t findWay(std::size_t set, Addr line_addr) const;

    /** Install a line; evicts (and possibly writes back) the victim. */
    void installLine(Addr line_addr, bool dirty);

    /** Queue a packet for downstream and kick the drain event. */
    void pushDownstream(MemPacket *pkt);
    void drainSendQueue();

    /** Wake rejected upstream requestors while capacity remains. */
    void wakeUpstream();

    /** Schedule an upstream response at now + hit latency. */
    void respondLater(MemPacket *pkt);
    void deliverResponses();

    /** Append a response; panics if @p when precedes the newest
     *  queued response. */
    void queueResponse(MemPacket *pkt, Tick when);

    CacheParams _params;
    ClockDomain &_domain;
    MemSink *_downstream = nullptr;

    /**
     * The tag store, one entry per way, set-major: a way's line
     * address (or invalidTag), its last access on the _useCounter
     * clock, and its dirty bit. Lookups scan only _tags.
     */
    std::vector<Addr> _tags;
    std::vector<std::uint64_t> _lastUse;
    std::vector<std::uint8_t> _dirty;
    std::size_t _numSets;
    unsigned _lineShift;
    std::uint64_t _useCounter = 0;

    MshrFile _mshrs;
    std::deque<MemPacket *> _sendQueue;
    /** Downstream rejected our head; waiting for retryRequest(). */
    bool _downstreamBlocked = false;

    struct Response
    {
        MemPacket *pkt;
        Tick when;
    };

    /**
     * Upstream responses in delivery order. Every response is due at
     * now plus the fixed hit latency, so due ticks never decrease.
     */
    std::deque<Response> _respQueue;

    EventFunction _sendEvent;
    EventFunction _respEvent;
};

} // namespace emerald::cache

#endif // EMERALD_CACHE_CACHE_HH
