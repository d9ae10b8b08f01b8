/**
 * @file
 * Simulation-wide progress watchdog with hang diagnosis.
 *
 * A lost retry wakeup or a starved port deadlocks an event-driven
 * simulation silently: the event queue just drains (or spins) with
 * requestors parked on RetryLists forever. The watchdog runs a
 * heartbeat event every budget ticks and declares a hang when a full
 * budget elapsed with zero packet completions (sim.pool frees) while
 * requestors sit parked on some RetryList.
 *
 * On a hang it builds a structured report — event-queue head, packet
 * pool occupancy, every parked waiter by name, and per-component
 * hangDiagnostics() lines — then either:
 *
 *   Abort   flush the JSON stats sink and panic() with the report
 *           (the report is the panic message, so it reaches stderr
 *           through the one sanctioned abort path).
 *   Degrade recover: force-wake every parked waiter (counted in
 *           sim.watchdog.forced_wakes), give each component its
 *           onWatchdogDegrade() hook (the display controller drops
 *           the in-flight frame), and re-arm with exponential
 *           backoff so a persistent hang cannot melt into a
 *           force-wake busy loop.
 *
 * The global completion counter is blind to partial starvation: one
 * subsystem can sit deadlocked while unrelated traffic keeps
 * completing packets. Degrade mode closes that gap with a stale-front
 * sweep on every healthy heartbeat — a waiter still at the head of
 * the same RetryList a full budget later gets one force-wake
 * (spurious wakeups are legal per the MemRequestor contract, so this
 * is always safe; counted in sim.watchdog.stale_wakes).
 *
 * The heartbeat never keeps a finished simulation alive: it re-arms
 * only while other live events remain, so a drained queue stays
 * drained.
 */

#ifndef EMERALD_SIM_FAULT_WATCHDOG_HH
#define EMERALD_SIM_FAULT_WATCHDOG_HH

#include <cstdint>
#include <string>
#include <unordered_map>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace emerald
{

class MemRequestor;
class RetryList;
class Simulation;

namespace fault
{

enum class WatchdogMode : std::uint8_t
{
    /** Emit the hang report and abort the process. */
    Abort,
    /** Recover: drop frames, force-wake waiters, keep running. */
    Degrade,
};

/** Parse "abort" / "degrade"; fatal() on anything else. */
WatchdogMode watchdogModeFromString(const std::string &text);

class ProgressWatchdog
{
  public:
    /**
     * @param budget ticks of zero-completion, waiters-parked time
     *        that count as a hang. Doubles per consecutive degrade
     *        recovery (up to 8x) and resets on real progress.
     * @param hang_report_path where abortWithReport writes its JSON
     *        report (--hang-report-path); "" writes none.
     */
    ProgressWatchdog(Simulation &sim, StatGroup &parent, Tick budget,
                     WatchdogMode mode, std::string hang_report_path);

    ProgressWatchdog(const ProgressWatchdog &) = delete;
    ProgressWatchdog &operator=(const ProgressWatchdog &) = delete;

    /** Schedule the first heartbeat (idempotent). */
    void arm();

    WatchdogMode mode() const { return _mode; }
    Tick budget() const { return _budget; }

    /** The report the last detected hang produced (tests). */
    const std::string &lastReport() const { return _lastReport; }

  private:
    /** Declared before the Scalars so it is constructed first. */
    StatGroup _group;

  public:
    /** @{ sim.watchdog.* counters. */
    Scalar statChecks;
    Scalar statHangs;
    Scalar statForcedWakes;
    Scalar statStaleWakes;
    /** @} */

  private:
    void beat();
    bool parkedWaiters() const;
    std::string buildReport();
    void degradeRecover();
    void sweepStaleFronts();

    /**
     * Serialize the current report as JSON to --hang-report-path
     * (no-op when unset) and terminate through the sanctioned
     * flush-stats-then-panic path. @p kind is "hang" (abort mode) or
     * "degrade-escalation" (forced-wake cap tripped).
     */
    [[noreturn]] void abortWithReport(const char *kind);

    /**
     * Count one force-wake against the waiter at the head of
     * @p list; escalates to abortWithReport when the per-waiter cap
     * trips (degrade must not silently spin forever).
     */
    void chargeForcedWake(const RetryList *list);

    Simulation &_sim;
    Tick _budget;
    Tick _currentBudget;
    WatchdogMode _mode;
    std::string _hangReportPath;
    EventFunction _beatEvent;
    /** sim.pool frees observed at the previous heartbeat. */
    double _lastFrees = 0.0;
    /** Head waiter of each list at the previous heartbeat (degrade
     *  stale-front sweep). Keys are only ever compared against live
     *  list pointers, never dereferenced. */
    std::unordered_map<const RetryList *, const MemRequestor *> _lastFront;
    /** Degrade-mode force-wakes charged to each waiter since the
     *  retry lists last fully drained; when one waiter absorbs more
     *  than the cap, degrade escalates to abort-with-report instead
     *  of spinning forever. Keys follow the _lastFront rules. */
    std::unordered_map<const MemRequestor *, unsigned> _forcedWakeCount;
    std::string _lastReport;
};

} // namespace fault
} // namespace emerald

#endif // EMERALD_SIM_FAULT_WATCHDOG_HH
