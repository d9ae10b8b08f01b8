#include "sim/fault/watchdog.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "sim/fault/domain.hh"
#include "sim/logging.hh"
#include "sim/packet.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace emerald::fault
{

namespace
{

/** Backoff cap: a persistent hang in degrade mode settles at this
 *  multiple of the base budget between recoveries. */
constexpr Tick backoffCap = 8;

/** Force-wakes one waiter may absorb (without the lists ever fully
 *  draining) before degrade mode concedes the hang is persistent and
 *  escalates to abort-with-report. */
constexpr unsigned degradeWakeCap = 16;

/** A parked waiter, named by the SimObject that recorded it. */
std::string
waiterName(const Simulation &sim, const MemRequestor &req)
{
    const SimObject *obj = sim.recorderOf(req);
    return obj ? obj->name() : "unnamed requestor";
}

} // namespace

WatchdogMode
watchdogModeFromString(const std::string &text)
{
    if (text == "abort")
        return WatchdogMode::Abort;
    if (text == "degrade")
        return WatchdogMode::Degrade;
    fatal("--watchdog-mode: expected 'abort' or 'degrade', got '%s'",
          text.c_str());
}

ProgressWatchdog::ProgressWatchdog(Simulation &sim, StatGroup &parent,
                                   Tick budget, WatchdogMode mode,
                                   std::string hang_report_path)
    : _group(parent, "watchdog"),
      statChecks(_group, "checks", "watchdog heartbeats processed"),
      statHangs(_group, "hangs", "no-progress windows detected"),
      statForcedWakes(_group, "forced_wakes",
                      "parked waiters force-woken by degrade recovery"),
      statStaleWakes(_group, "stale_wakes",
                     "stuck list heads force-woken by the stale-front "
                     "sweep"),
      _sim(sim), _budget(budget), _currentBudget(budget), _mode(mode),
      _hangReportPath(std::move(hang_report_path)),
      _beatEvent([this] { beat(); }, "watchdog-beat",
                 Event::statsPriority)
{
    panic_if(budget == 0, "watchdog budget must be nonzero");
}

void
ProgressWatchdog::arm()
{
    EventQueue &eq = _sim.eventQueue();
    if (!_beatEvent.scheduled())
        eq.schedule(_beatEvent, eq.curTick() + _currentBudget);
    _lastFrees = _sim.packetPool().statFrees.value();
}

bool
ProgressWatchdog::parkedWaiters() const
{
    for (const RetryList *list : _sim.faultDomain().lists())
        if (!list->empty())
            return true;
    return false;
}

void
ProgressWatchdog::beat()
{
    ++statChecks;
    EventQueue &eq = _sim.eventQueue();
    double frees = _sim.packetPool().statFrees.value();
    bool progress = frees != _lastFrees;
    _lastFrees = frees;

    if (progress || !parkedWaiters()) {
        // Healthy (or merely idle with nobody blocked): reset the
        // backoff and keep beating while the simulation is alive. No
        // re-arm on an empty queue — the heartbeat must never keep a
        // finished simulation running.
        //
        // Global progress can mask partial starvation (one subsystem
        // deadlocked while unrelated traffic completes), so degrade
        // mode still sweeps for waiters stuck at a list head.
        if (_mode == WatchdogMode::Degrade)
            sweepStaleFronts();
        // A fully drained set of retry lists forgives past force-wake
        // debt: the escalation cap only charges waiters that never
        // managed to leave.
        if (!parkedWaiters())
            _forcedWakeCount.clear();
        _currentBudget = _budget;
        if (!eq.empty())
            eq.schedule(_beatEvent, eq.curTick() + _currentBudget);
        return;
    }

    ++statHangs;
    _lastReport = buildReport();

    if (_mode == WatchdogMode::Abort)
        abortWithReport("hang");

    warn("%s", _lastReport.c_str());
    degradeRecover();
    _currentBudget = std::min(_currentBudget * 2, _budget * backoffCap);
    if (!eq.empty())
        eq.schedule(_beatEvent, eq.curTick() + _currentBudget);
}

std::string
ProgressWatchdog::buildReport()
{
    EventQueue &eq = _sim.eventQueue();
    PacketPool &pool = _sim.packetPool();
    std::ostringstream os;
    os << "PROGRESS WATCHDOG: no packet completed for " << _currentBudget
       << " ticks with requestors blocked (now=" << eq.curTick()
       << ", mode="
       << (_mode == WatchdogMode::Abort ? "abort" : "degrade") << ")";
    os << "\n  event queue: " << eq.size()
       << " live events, head: " << eq.headSummary();
    os << "\n  packet pool: live=" << pool.live()
       << " allocs=" << static_cast<std::uint64_t>(pool.statAllocs.value())
       << " frees=" << static_cast<std::uint64_t>(pool.statFrees.value());
    os << "\n  parked retry waiters:";
    bool any = false;
    for (const RetryList *list : _sim.faultDomain().lists()) {
        if (list->empty())
            continue;
        any = true;
        os << "\n    " << list->owner() << " <-";
        for (const MemRequestor *req : list->waiters())
            os << " " << waiterName(_sim, *req);
    }
    if (!any)
        os << " (none)";
    os << "\n  component diagnostics:";
    bool diag = false;
    for (SimObject *obj : _sim.objects()) {
        std::ostringstream line;
        obj->hangDiagnostics(line);
        if (line.str().empty())
            continue;
        diag = true;
        os << "\n    " << obj->name() << ": " << line.str();
    }
    if (!diag)
        os << " (none)";
    return os.str();
}

void
ProgressWatchdog::degradeRecover()
{
    // Force-wake everyone parked right now, once each. force=true
    // bypasses wake-suppress injection — recovery must not be eaten
    // by the very fault it recovers from.
    for (RetryList *list : _sim.faultDomain().lists()) {
        std::size_t budget = list->size();
        while (budget-- > 0) {
            chargeForcedWake(list);
            if (!list->wakeOne(/*force=*/true))
                break;
            ++statForcedWakes;
        }
    }
    for (SimObject *obj : _sim.objects())
        obj->onWatchdogDegrade();
}

void
ProgressWatchdog::chargeForcedWake(const RetryList *list)
{
    if (list->empty())
        return;
    const MemRequestor *head = list->waiters().front();
    unsigned &count = _forcedWakeCount[head];
    if (++count <= degradeWakeCap)
        return;
    // One waiter has absorbed a full cap of force-wakes without the
    // lists ever draining: this hang is deterministic, and degrade
    // mode spinning on it forever would just hide it. Escalate with a
    // fresh report so the supervisor sees the final state.
    _lastReport = buildReport();
    _lastReport += strprintf(
        "\n  DEGRADE ESCALATION: waiter '%s' absorbed %u force-wakes "
        "on list '%s' without recovering (cap %u)",
        waiterName(_sim, *head).c_str(), count, list->owner().c_str(),
        degradeWakeCap);
    abortWithReport("degrade-escalation");
}

void
ProgressWatchdog::abortWithReport(const char *kind)
{
    const std::string &path = _hangReportPath;
    if (!path.empty()) {
        EventQueue &eq = _sim.eventQueue();
        PacketPool &pool = _sim.packetPool();
        std::ofstream os(path, std::ios::trunc);
        if (!os) {
            warn("cannot write hang report to '%s'", path.c_str());
        } else {
            os << "{\n";
            os << "  \"kind\": \"" << jsonEscape(kind) << "\",\n";
            os << "  \"tick\": " << eq.curTick() << ",\n";
            os << "  \"budget\": " << _currentBudget << ",\n";
            os << "  \"mode\": \""
               << (_mode == WatchdogMode::Abort ? "abort" : "degrade")
               << "\",\n";
            os << "  \"event_queue\": {\"size\": " << eq.size()
               << ", \"head\": \"" << jsonEscape(eq.headSummary())
               << "\"},\n";
            os << "  \"pool\": {\"live\": " << pool.live()
               << ", \"allocs\": "
               << static_cast<std::uint64_t>(pool.statAllocs.value())
               << ", \"frees\": "
               << static_cast<std::uint64_t>(pool.statFrees.value())
               << "},\n";
            os << "  \"waiters\": [";
            bool firstList = true;
            for (const RetryList *list : _sim.faultDomain().lists()) {
                if (list->empty())
                    continue;
                os << (firstList ? "" : ", ")
                   << "{\"list\": \"" << jsonEscape(list->owner())
                   << "\", \"requestors\": [";
                firstList = false;
                bool firstReq = true;
                for (const MemRequestor *req : list->waiters()) {
                    os << (firstReq ? "" : ", ") << "\""
                       << jsonEscape(waiterName(_sim, *req)) << "\"";
                    firstReq = false;
                }
                os << "]}";
            }
            os << "],\n";
            os << "  \"diagnostics\": [";
            bool firstDiag = true;
            for (SimObject *obj : _sim.objects()) {
                std::ostringstream line;
                obj->hangDiagnostics(line);
                if (line.str().empty())
                    continue;
                os << (firstDiag ? "" : ", ") << "\""
                   << jsonEscape(obj->name() + ": " + line.str())
                   << "\"";
                firstDiag = false;
            }
            os << "],\n";
            os << "  \"report_text\": \"" << jsonEscape(_lastReport)
               << "\"\n";
            os << "}\n";
        }
    }
    // panic() is the one sanctioned abort path and carries the
    // report to stderr.
    panic("%s", _lastReport.c_str());
}

void
ProgressWatchdog::sweepStaleFronts()
{
    for (RetryList *list : _sim.faultDomain().lists()) {
        const MemRequestor *front =
            list->empty() ? nullptr : list->waiters().front();
        auto it = _lastFront.find(list);
        if (front != nullptr && it != _lastFront.end() &&
            it->second == front) {
            // The same waiter headed this list a full budget ago while
            // everything around it made progress: its wakeup is lost.
            // A spurious wake is always legal, so recover it.
            chargeForcedWake(list);
            if (list->wakeOne(/*force=*/true)) {
                ++statForcedWakes;
                ++statStaleWakes;
            }
            front = list->empty() ? nullptr : list->waiters().front();
        }
        if (front != nullptr)
            _lastFront[list] = front;
        else
            _lastFront.erase(list);
    }
}

} // namespace emerald::fault
