/**
 * @file
 * Memory packets and the request/response interfaces that connect
 * requestors, caches, interconnect and DRAM.
 *
 * Flow control is an explicit accept/reject/retry protocol (see
 * docs/memory_protocol.md). A requestor offers a packet to a MemSink
 * with offer(); a false return means the sink is busy (full queue, no
 * free MSHR, arbitration lost) and the sink has queued the requestor:
 * when capacity frees, the sink calls the requestor's retryRequest()
 * in FIFO registration order. Rejected requestors never poll — there
 * are no per-cycle re-offer events anywhere in the request path.
 * Responses travel back through the MemClient interface recorded in
 * the packet.
 *
 * Emerald separates function from timing: packets carry addresses and
 * metadata only, never data bytes. Functional state lives in
 * FunctionalMemory, the framebuffer and texture objects.
 */

#ifndef EMERALD_SIM_PACKET_HH
#define EMERALD_SIM_PACKET_HH

#include <cstdint>
#include <deque>
#include <string>

#include "sim/check/hooks.hh"
#include "sim/fault/domain.hh"
#include "sim/fault/fault_injector.hh"
#include "sim/types.hh"

namespace emerald
{

/** Which SoC agent generated the traffic; DASH and HMC key off this. */
enum class TrafficClass : std::uint8_t
{
    Cpu,
    Gpu,
    Display,
    Npu,
};

/** How many TrafficClass enumerators there are. */
constexpr std::uint64_t numTrafficClasses = 4;

/** Fine-grained access type, used for per-stream stats and routing. */
enum class AccessKind : std::uint8_t
{
    CpuData,
    Inst,
    GlobalData,
    Texture,
    Depth,
    Color,
    Constant,
    Vertex,
    Display,
    Writeback,
    NpuData,
    NumKinds,
};

const char *accessKindName(AccessKind kind);
const char *trafficClassName(TrafficClass tclass);

class CheckpointIo;
class MemPacket;
class PacketPool;
class Simulation;

/** Receives responses for packets it sent downstream. */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /**
     * A request previously accepted downstream has completed.
     * Ownership of @p pkt returns to the client.
     */
    virtual void memResponse(MemPacket *pkt) = 0;
};

/** A component that can be woken when a sink it blocked on frees up. */
class MemRequestor
{
  public:
    virtual ~MemRequestor() = default;

    /**
     * A sink that previously rejected an offer from this requestor
     * may have capacity now; re-offer the blocked packet. Wakeups can
     * be spurious (e.g. the blocked packet was abandoned meanwhile),
     * so implementations must tolerate having nothing to send.
     */
    virtual void retryRequest() = 0;
};

/**
 * FIFO of requestors waiting for a sink to free capacity. A requestor
 * is queued at most once per list; wakeups pop in registration order
 * so long-blocked requestors are served first (no retry storms, no
 * starvation).
 */
class RetryList
{
  public:
    /**
     * Registers with @p domain (the enclosing Simulation's — see
     * Simulation::faultDomain()) so the watchdog can enumerate parked
     * waiters and the protocol seams can resolve the injector and the
     * check context. Lists constructed without a domain (bare tests)
     * stay unregistered and see neither injection nor checking.
     */
    explicit RetryList(fault::FaultDomain *domain = nullptr);
    ~RetryList();

    RetryList(const RetryList &) = delete;
    RetryList &operator=(const RetryList &) = delete;

    /** Queue @p req for a wakeup; duplicates are ignored. */
    void add(MemRequestor &req);

    /**
     * Wake the longest-waiting requestor.
     *
     * With @p force the wake bypasses fault injection: the injector's
     * heal flush and the watchdog's degrade recovery use it so their
     * wakeups cannot be re-suppressed. A non-forced wake swallowed by
     * a wake-suppress fault returns false and sends the victim to the
     * back of the FIFO (the lost wakeup also loses its queue slot).
     *
     * @return false when no requestor was woken.
     */
    bool wakeOne(bool force = false);

    bool empty() const { return _waiters.empty(); }
    std::size_t size() const { return _waiters.size(); }

    /** Parked requestors in FIFO order (watchdog hang report). */
    const std::deque<MemRequestor *> &waiters() const
    {
        return _waiters;
    }

    /** Name of the owning sink, for checker/abort diagnostics. */
    void setOwner(const std::string &name) { _owner = name; }
    const std::string &owner() const { return _owner; }

    /** @{ Per-Simulation seam context, resolved through the domain
     *  this list registered with; nullptr for unregistered lists. */
    fault::FaultInjector *
    injector() const
    {
        return _domain ? _domain->injector() : nullptr;
    }

    check::CheckContext *
    checkContext() const
    {
        return _domain ? _domain->checkContext() : nullptr;
    }
    /** @} */

    /**
     * Checkpoint the parked waiters under "<prefix>." keys as
     * references (CheckpointIo::reference), in FIFO order: a parked
     * requestor that no SimObject recorded cannot be named, so it
     * cannot be saved.
     */
    void serialize(CheckpointIo &io, const std::string &prefix);

  private:
    std::deque<MemRequestor *> _waiters;
    std::string _owner = "unnamed sink";
    /** Domain this list registered with (null outside a Simulation). */
    fault::FaultDomain *_domain = nullptr;
};

/** Accepts memory request packets. */
class MemSink
{
  public:
    /**
     * Binds this sink's retry list to @p sim's fault domain so the
     * watchdog, the fault injector and the checkers see it. Every
     * production sink must use this constructor.
     */
    explicit MemSink(Simulation &sim);

    /** An unbound sink: no registration, no injection, no checking.
     *  For tests and probes constructed outside a Simulation. */
    MemSink() = default;

    virtual ~MemSink() = default;

    /**
     * Offer a packet with no retry registration. On true the sink
     * takes ownership; on false the caller keeps the packet. Used by
     * tests and probes; components on the request path use offer()
     * so rejection wakes them instead of forcing a poll.
     */
    virtual bool tryAccept(MemPacket *pkt) = 0;

    /**
     * Offer a packet with backpressure. On true the sink takes
     * ownership. On false the caller keeps the packet and @p req is
     * queued: the sink calls req.retryRequest() when capacity frees
     * (FIFO among waiters). The caller must not re-offer until then.
     *
     * A routing sink (the memory system) overrides this to register
     * the requestor with the component that actually ran out of
     * capacity, so wakeups come from the right queue.
     */
    virtual bool
    offer(MemPacket *pkt, MemRequestor &req)
    {
        EMERALD_CHECK_HOOK(offerStarted(&_retries, pkt));
        // Fault seam: an active injector may force-reject this offer
        // (offer-burst sites). Cost when injection is off: one branch.
        if (auto *inj = _retries.injector();
            inj && inj->injectOfferReject(_retries, req)) {
            EMERALD_CHECK_HOOK(offerRejected(&_retries, pkt, &req));
            _retries.add(req);
            return false;
        }
        if (tryAccept(pkt)) {
            // pkt may already be completed (even freed) by the sink
            // here; the hook uses it as an identity key only, so
            // GCC's use-after-free tracking is a false positive
            // (whether it fires depends on inlining depth).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuse-after-free"
            EMERALD_CHECK_HOOK(offerAccepted(&_retries, pkt));
#pragma GCC diagnostic pop
            return true;
        }
        EMERALD_CHECK_HOOK(offerRejected(&_retries, pkt, &req));
        _retries.add(req);
        return false;
    }

  protected:
    /** Name this sink's retry list for checker/abort diagnostics. */
    void setSinkName(const std::string &name) { _retries.setOwner(name); }

    /**
     * Wake the longest-waiting rejected requestor, if any. Sinks call
     * this (typically in a loop against their capacity check) whenever
     * a queue slot or MSHR frees.
     */
    bool wakeOneRetry() { return _retries.wakeOne(); }

    /**
     * Like wakeOneRetry(), but returns false when the woken requestor
     * immediately re-registered (its retry was rejected again, e.g.
     * for a resource the caller's capacity check does not cover).
     * Wake loops must use this to guarantee termination: a waiter that
     * made no progress would otherwise be woken forever.
     */
    bool
    wakeOneRetryChecked()
    {
        std::size_t before = _retries.size();
        if (!_retries.wakeOne())
            return false;
        return _retries.size() < before;
    }

    bool hasRetryWaiters() const { return !_retries.empty(); }

    /** This sink's retry list, for checkpointing parked waiters. */
    RetryList &retryList() { return _retries; }
    const RetryList &retryList() const { return _retries; }

  private:
    RetryList _retries;
};

/**
 * One memory transaction. Requests at most one cache line in size.
 *
 * Packets on the hot path come from the owning Simulation's
 * PacketPool (see sim/packet_pool.hh) and must be released with
 * freePacket()/completePacket(), which return them to their pool.
 * Plain new/delete packets (tests, probes) remain legal: freePacket()
 * falls back to delete when the packet has no pool.
 */
class MemPacket
{
  public:
    MemPacket(Addr addr_, unsigned size_, bool write_,
              TrafficClass tclass_, AccessKind kind_, int requestor_id,
              MemClient *client_ = nullptr, std::uint64_t token_ = 0)
        : addr(addr_), size(size_), write(write_), tclass(tclass_),
          kind(kind_), requestorId(requestor_id), client(client_),
          token(token_)
    {}

    Addr addr;
    unsigned size;
    bool write;
    TrafficClass tclass;
    AccessKind kind;

    /**
     * Identifies the requesting agent for scheduler accounting:
     * CPU cores use their core index; see soc::RequestorIds for IPs.
     */
    int requestorId;

    /** Receiver of the response; nullptr marks a posted write. */
    MemClient *client;

    /** Client-private tag, opaque to everything below the client. */
    std::uint64_t token;

    /** When the packet entered the memory system (for latency stats). */
    Tick issued = 0;

    /** Owning pool, set by PacketPool::alloc(); nullptr = heap. */
    PacketPool *pool = nullptr;

    /**
     * Lifecycle generation stamp, written by the check subsystem (see
     * sim/check/hooks.hh): a fresh generation per pool alloc, with
     * check::packetPoisonBit set while the storage sits in the free
     * list. Always present so build flavors stay ABI-compatible; zero
     * (never poisoned) when checks are off.
     */
    std::uint64_t checkGen = 0;

    /** True for posted writes that never generate a response. */
    bool posted() const { return client == nullptr; }

    /** Line-aligned address for @p line_size byte lines. */
    Addr
    lineAddr(unsigned line_size) const
    {
        return addr & ~static_cast<Addr>(line_size - 1);
    }

    std::string toString() const;
};

/** Return @p pkt to its pool, or delete it if it has none. */
void freePacket(MemPacket *pkt);

/**
 * Complete a packet from the perspective of the component that
 * finished servicing it: respond to the client or, for posted writes,
 * free the packet.
 */
inline void
completePacket(MemPacket *pkt)
{
    EMERALD_CHECK_HOOK(packetCompleting(pkt));
    if (pkt->client)
        pkt->client->memResponse(pkt);
    else
        freePacket(pkt);
}

} // namespace emerald

#endif // EMERALD_SIM_PACKET_HH
