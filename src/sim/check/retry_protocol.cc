#include "sim/check/retry_protocol.hh"

#include "sim/event_queue.hh"
#include "sim/fault/domain.hh"
#include "sim/fault/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/packet.hh"

namespace emerald::check
{

fault::FaultInjector *
RetryProtocolChecker::injector() const
{
    return _domain ? _domain->injector() : nullptr;
}

void
RetryProtocolChecker::checkStaleRejects(Tick now) const
{
    for (const auto &[req, tick] : _pendingReject) {
        if (tick < now) {
            panic("retry protocol: offer from requestor %p was "
                  "rejected at tick %llu but never registered for a "
                  "retry — the requestor can never be woken",
                  static_cast<void *>(req), (unsigned long long)tick);
        }
    }
}

void
RetryProtocolChecker::onOfferStarted(RetryList *list)
{
    (void)list;
    checkStaleRejects(_eq.curTick());
}

void
RetryProtocolChecker::onOfferAccepted(RetryList *list)
{
    Tick now = _eq.curTick();
    checkStaleRejects(now);
    // A fault campaign deliberately starves waiters (stall windows,
    // rejection bursts), so the timing-based lost-wakeup heuristic
    // would report the injector's own faults; the ProgressWatchdog
    // owns hang detection under injection.
    if (injector())
        return;
    for (const auto &[req, info] : _waiting) {
        if (info.list != list)
            continue;
        if (now - info.since > _lostWakeTicks) {
            panic("retry protocol: lost wakeup on '%s': requestor %p "
                  "has been parked since tick %llu while the sink "
                  "kept accepting fresh offers (now tick %llu, "
                  "threshold %llu ticks)",
                  list->owner().c_str(), static_cast<void *>(req),
                  (unsigned long long)info.since,
                  (unsigned long long)now,
                  (unsigned long long)_lostWakeTicks);
        }
    }
}

void
RetryProtocolChecker::onOfferRejected(RetryList *list, MemRequestor *req)
{
    Tick now = _eq.curTick();
    auto it = _pendingReject.find(req);
    if (it != _pendingReject.end()) {
        panic("retry protocol: requestor %p was rejected by '%s' at "
              "tick %llu with an earlier rejection (tick %llu) still "
              "unregistered",
              static_cast<void *>(req), list->owner().c_str(),
              (unsigned long long)now, (unsigned long long)it->second);
    }
    _pendingReject.emplace(req, now);
}

void
RetryProtocolChecker::onRegistered(RetryList *list, MemRequestor *req,
                                   bool deduped)
{
    _pendingReject.erase(req);
    auto it = _waiting.find(req);
    bool tracked_here = it != _waiting.end() && it->second.list == list;

    if (deduped) {
        // Benign: the requestor abandoned its parked packet and
        // re-offered while still queued (display frame restart). Its
        // FIFO position — and therefore its original `since` — stand.
        return;
    }
    if (tracked_here) {
        panic("retry protocol: duplicate registration of requestor %p "
              "on '%s' (already queued since tick %llu) — "
              "RetryList::add failed to dedup; the requestor would "
              "be woken twice",
              static_cast<void *>(req), list->owner().c_str(),
              (unsigned long long)it->second.since);
    }
    // A fresh registration supersedes any stale one with another sink.
    _waiting[req] = WaitInfo{list, _eq.curTick()};
}

void
RetryProtocolChecker::onWoken(RetryList *list, MemRequestor *req)
{
    auto it = _waiting.find(req);
    if (it != _waiting.end() && it->second.list == list)
        _waiting.erase(it);

    Tick now = _eq.curTick();
    if (list == _lastWakeList && req == _lastWakeReq &&
        now == _lastWakeTick) {
        if (++_wakeRepeat > wakeLoopLimit) {
            panic("retry protocol: wake loop on '%s': requestor %p "
                  "woken %u times at tick %llu without the retry "
                  "list shrinking — use wakeOneRetryChecked(); see "
                  "docs/memory_protocol.md",
                  list->owner().c_str(), static_cast<void *>(req),
                  _wakeRepeat, (unsigned long long)now);
        }
    } else {
        _lastWakeList = list;
        _lastWakeReq = req;
        _lastWakeTick = now;
        _wakeRepeat = 1;
    }
}

void
RetryProtocolChecker::verifyQuiescent() const
{
    for (const auto &[req, tick] : _pendingReject) {
        panic("retry protocol: offer from requestor %p rejected at "
              "tick %llu was never registered for a retry",
              static_cast<void *>(req), (unsigned long long)tick);
    }
    auto *inj = injector();
    for (const auto &[req, info] : _waiting) {
        // Victims of deliberate faults (wake-suppress, injected
        // rejections) are expected to be parked at teardown.
        if (inj && inj->faultedRequestor(req))
            continue;
        panic("retry protocol: lost wakeup: requestor %p is still "
              "parked on '%s' (since tick %llu) with nothing left "
              "that could wake it",
              static_cast<void *>(req), info.list->owner().c_str(),
              (unsigned long long)info.since);
    }
}

} // namespace emerald::check
