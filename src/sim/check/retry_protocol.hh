/**
 * @file
 * Verifies the offer/reject/retry state machine of the memory-port
 * protocol (docs/memory_protocol.md) as it runs:
 *
 *  - every rejected offer is paired with exactly one retry
 *    registration before the next protocol action at a later tick;
 *  - a RetryList never holds the same requestor twice (the dedup in
 *    RetryList::add is cross-checked against this mirror, so a
 *    corrupted list aborts instead of double-waking);
 *  - a wake loop that keeps waking the same requestor within one tick
 *    without the retry list shrinking aborts instead of livelocking;
 *  - a sink that keeps accepting fresh offers while a waiter has been
 *    parked on it longer than the lost-wakeup threshold aborts (a
 *    lost or missing retryRequest()).
 *
 * Legal-but-subtle patterns the checker deliberately tolerates: a
 * requestor that abandons its parked packet and re-offers fresh
 * traffic while its stale registration lingers (the display does this
 * at every frame restart), and the resulting registration with a
 * second sink before the first wakes it spuriously.
 */

#ifndef EMERALD_SIM_CHECK_RETRY_PROTOCOL_HH
#define EMERALD_SIM_CHECK_RETRY_PROTOCOL_HH

#include <unordered_map>

#include "sim/types.hh"

namespace emerald
{

class EventQueue;
class MemRequestor;
class RetryList;

namespace fault
{
class FaultDomain;
class FaultInjector;
} // namespace fault

namespace check
{

/** Mirrors every RetryList's membership to cross-check transitions. */
class RetryProtocolChecker
{
  public:
    /**
     * Default lost-wakeup threshold: a waiter parked for 10 simulated
     * milliseconds on a sink that is still accepting fresh traffic is
     * beyond any legitimate congestion backlog in the modeled SoCs.
     */
    static constexpr Tick defaultLostWakeTicks = ticksFromMs(10.0);

    /** Wakes of one requestor within a single tick before aborting. */
    static constexpr unsigned wakeLoopLimit = 1024;

    /**
     * @param domain the owning Simulation's fault domain, consulted
     *        for the active injector so deliberate faults (starved
     *        waiters, suppressed wakes) are not reported as protocol
     *        bugs. Null for bare test checkers.
     */
    explicit RetryProtocolChecker(EventQueue &eq,
                                  fault::FaultDomain *domain = nullptr)
        : _eq(eq), _domain(domain)
    {}

    /** A sink is starting to evaluate an offer. */
    void onOfferStarted(RetryList *list);

    /** A sink accepted an offer (capacity existed at this tick). */
    void onOfferAccepted(RetryList *list);

    /** A sink rejected an offer from @p req. */
    void onOfferRejected(RetryList *list, MemRequestor *req);

    /**
     * RetryList::add ran for @p req; @p deduped is true when the list
     * found @p req already queued and ignored the add.
     */
    void onRegistered(RetryList *list, MemRequestor *req, bool deduped);

    /** @p req was popped from @p list for a wakeup. */
    void onWoken(RetryList *list, MemRequestor *req);

    /**
     * Abort if any rejection is still unpaired or any requestor is
     * still parked. Valid only when nothing can wake them anymore
     * (drained event queue at teardown, or a test that knows the
     * system is idle).
     */
    void verifyQuiescent() const;

    /** Override the lost-wakeup threshold (tests use small values). */
    void setLostWakeThreshold(Tick ticks) { _lostWakeTicks = ticks; }

    std::size_t numWaiting() const { return _waiting.size(); }

  private:
    struct WaitInfo
    {
        RetryList *list;
        Tick since;
    };

    /** Abort if an older rejection was never followed by an add. */
    void checkStaleRejects(Tick now) const;

    /** The domain's active injector, or nullptr. */
    fault::FaultInjector *injector() const;

    /**
     * Latest registration per requestor. A stale entry superseded by
     * a registration with another sink is dropped: the protocol owes
     * that requestor at most a spurious wake from the old list.
     */
    std::unordered_map<MemRequestor *, WaitInfo> _waiting;
    /** Rejections whose matching registration has not arrived yet. */
    std::unordered_map<MemRequestor *, Tick> _pendingReject;

    RetryList *_lastWakeList = nullptr;
    MemRequestor *_lastWakeReq = nullptr;
    Tick _lastWakeTick = 0;
    unsigned _wakeRepeat = 0;

    Tick _lostWakeTicks = defaultLostWakeTicks;
    EventQueue &_eq;
    fault::FaultDomain *_domain;
};

} // namespace check
} // namespace emerald

#endif // EMERALD_SIM_CHECK_RETRY_PROTOCOL_HH
