/**
 * @file
 * The Simulation context: the event queue, the stats root, and the
 * clock domains of one simulated system.
 */

#ifndef EMERALD_SIM_SIMULATION_HH
#define EMERALD_SIM_SIMULATION_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "sim/event_tracer.hh"
#include "sim/fault/domain.hh"
#include "sim/packet_pool.hh"
#include "sim/serialize/registry.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace emerald
{

class CheckpointTrigger;
class Serializable;
class SimObject;

namespace check
{
class CheckContext;
class DeterminismVerifier;
} // namespace check

namespace fault
{
class FaultInjector;
class ProgressWatchdog;
enum class WatchdogMode : std::uint8_t;
} // namespace fault

/**
 * Owns the event queue and the root of the stats tree. Every
 * SimObject is constructed against a Simulation and registers its
 * stats under it.
 */
class Simulation
{
  public:
    Simulation();
    ~Simulation();

    EventQueue &eventQueue() { return _eq; }
    Tick curTick() const { return _eq.curTick(); }

    /** Root of the stats tree. */
    StatGroup &statsRoot() { return _statsRoot; }

    /**
     * The free-list packet allocator every component on the memory
     * request path allocates from (stats under sim.pool.*). The pool
     * dies with the Simulation, so packets must not outlive it.
     */
    PacketPool &packetPool() { return *_packetPool; }

    /**
     * Create a clock domain owned by this simulation.
     * @param mhz frequency in MHz.
     */
    ClockDomain &createClockDomain(double mhz, const std::string &name);

    /**
     * Look up a clock domain by name (e.g. one declared through
     * SimulationBuilder::clockDomain); fatal when absent.
     */
    ClockDomain &clockDomain(const std::string &name);

    /** The named domain, or nullptr when absent. */
    ClockDomain *findClockDomain(const std::string &name);

    /** Run until the event queue drains or @p limit is reached. */
    std::uint64_t run(Tick limit = maxTick) { return _eq.runUntil(limit); }

    /** Dump all stats as "name value # desc" lines. */
    void dumpStats(std::ostream &os) { _statsRoot.dumpStats(os); }

    /** Root of the stats tree (StatsSink capture, flattening). */
    const StatGroup &statsRoot() const { return _statsRoot; }

    /** Dump all stats as one machine-readable JSON tree. */
    void dumpStatsJson(std::ostream &os)
    {
        _statsRoot.dumpJson(os);
        os << "\n";
    }

    /** Reset all stats without disturbing component state. */
    void resetStats() { _statsRoot.resetStats(); }

    /**
     * The sim.profile.* counters. Always present so components can
     * register at construction; counters only advance after
     * enableProfiling().
     */
    EventProfiler &profiler() { return *_profiler; }

    /** Start attributing event counts/wall time to sim.profile.*. */
    void enableProfiling();

    /**
     * Start streaming a Chrome-trace (Perfetto-loadable) event log to
     * @p path. Returns the tracer so callers can close() it early.
     */
    EventTracer &enableTracing(const std::string &path);

    /** The active tracer, or nullptr when tracing is off. */
    EventTracer *tracer() { return _tracer.get(); }

    /**
     * Exit stats dump: write the final dumpStatsJson tree to @p path
     * ("" or "null" disables) at the first flushStatsSink(): a rig's
     * destructor while its components still exist, else this
     * Simulation's destructor. Fatal now when @p path cannot be
     * opened for writing or is a "sqlite:" URI (results for the sweep
     * database go through --stats-out).
     */
    void writeStatsAtExit(const std::string &path);

    /**
     * Start hashing every processed event into sim.check.event_hash
     * (see sim/check/determinism.hh). Available in every build type —
     * it rides the event-queue instrument branch, so runs without it
     * pay nothing. Idempotent.
     */
    void enableDeterminismCheck();

    /**
     * Full 64-bit event-stream hash, or 0 when the determinism check
     * was never enabled. The sim.check.event_hash stat carries a
     * 53-bit fold of the same value.
     */
    std::uint64_t determinismHash() const;

    /**
     * This simulation's correctness checkers, or nullptr in builds
     * without EMERALD_CHECKS. Tests use this to tune thresholds and
     * run quiescence checks mid-run.
     */
    check::CheckContext *checkContext() { return _checkContext.get(); }

    /**
     * Registry of every RetryList constructed under this Simulation —
     * the watchdog's and the fault injector's view of who is parked
     * waiting for a retry.
     */
    fault::FaultDomain &faultDomain() { return _faultDomain; }

    /**
     * Parse @p plan_text (--fault-plan grammar, see
     * docs/fault_injection.md) and activate a seeded FaultInjector for
     * this simulation's lifetime, published on faultDomain() for the
     * protocol seams. An empty plan creates nothing, so runs without
     * faults keep faultDomain().injector() == nullptr and pay a
     * single branch per protocol seam.
     */
    void configureFaults(const std::string &plan_text,
                         std::uint64_t seed);

    /** The active injector, or nullptr when faults are off. */
    fault::FaultInjector *faultInjector()
    {
        return _faultInjector.get();
    }

    /**
     * Arm the progress watchdog: declare a hang when @p budget ticks
     * elapse with zero packet completions while requestors sit parked
     * on RetryLists. See sim/fault/watchdog.hh for abort vs degrade.
     * The abort path writes its structured JSON hang report to
     * @p hang_report_path (--hang-report-path; "" writes none), which
     * the run supervisor reads to classify a dead child as a hang.
     */
    void enableWatchdog(Tick budget, fault::WatchdogMode mode,
                        const std::string &hang_report_path = "");

    /** The armed watchdog, or nullptr when disabled. */
    fault::ProgressWatchdog *watchdog() { return _watchdog.get(); }

    /**
     * Write the exit stats dump (writeStatsAtExit) now, once: later
     * calls are no-ops, so the Simulation's own destructor cannot
     * overwrite a dump a rig flushed while its components were alive.
     * The watchdog's abort path calls this because abort() skips
     * destructors. No-op when no dump is configured.
     */
    void flushStatsSink();

    /** Every live SimObject, in construction order. */
    const std::vector<SimObject *> &objects() const { return _objects; }

    /**
     * Name tables for checkpointable cross-object references (events,
     * response targets, retry waiters). See sim/serialize/registry.hh.
     */
    CheckpointRegistry &checkpointRegistry() { return _ckptRegistry; }
    const CheckpointRegistry &
    checkpointRegistry() const
    {
        return _ckptRegistry;
    }

    /**
     * Record the hash of the construction-time configuration. A
     * checkpoint stores it and restore refuses on mismatch (unless
     * forced): state from one topology silently deserialized into a
     * different one is the failure mode this subsystem must never
     * have.
     */
    void
    setConfigFingerprint(std::uint64_t fp)
    {
        _configFingerprint = fp;
    }

    std::uint64_t configFingerprint() const { return _configFingerprint; }

    /**
     * Checkpoint a stateful object that is not a SimObject (e.g. the
     * framebuffer): @p obj is saved/restored as section @p name
     * alongside the SimObjects. The caller keeps ownership and must
     * outlive the Simulation's save/restore calls.
     */
    void registerSerializable(const std::string &name,
                              Serializable &obj);

    /**
     * Arm a checkpoint at the first inter-event boundary at or after
     * @p at ticks (--checkpoint-at). The trigger rides the event-queue
     * instrument chain, so arming it perturbs no event ordering; if
     * components report !checkpointSafe() at @p at (an open frame, a
     * busy SIMT core) the save is deferred to the next safe boundary.
     */
    void scheduleCheckpoint(Tick at, const std::string &dir);

    /**
     * Arm recurring auto-checkpoints (--checkpoint-every): every
     * @p every ticks, at the next quiescent inter-event boundary, a
     * complete checkpoint is written to a temporary directory and
     * atomically renamed to <dir>/auto-<tick> — a reader never sees
     * a torn one. Only the newest @p keep rotations are retained.
     */
    void scheduleRecurringCheckpoint(Tick every, const std::string &dir,
                                     unsigned keep);

    /**
     * Write a checkpoint of the current state into directory @p dir
     * (manifest.json + data.bin + stats.json). Fatal when any object
     * reports !checkpointSafe().
     */
    void saveCheckpoint(const std::string &dir);

    /**
     * One rotation of the recurring trigger, exposed for it and for
     * tests: save into <base>/.tmp-auto, atomically rename to
     * <base>/auto-<tick> (zero-padded so lexical order is tick
     * order), then prune rotations beyond @p keep.
     */
    void saveRotatedCheckpoint(const std::string &base, unsigned keep);

    /**
     * Restore checkpoint @p dir (--restore) onto the constructed
     * topology: validates the fingerprint, rewinds the event queue,
     * unserializes every object (construction order), overwrites the
     * stats tree and re-schedules the pending events by name. Rigs
     * call this once construction is complete (SocTop does it for
     * its builder's --restore). @p force downgrades the
     * config-fingerprint mismatch from fatal to a warning
     * (--restore-force). @p lenient makes a missing/entirely-corrupt
     * checkpoint a warning-and-cold-start instead of fatal — the
     * recovery path (supervised reruns under --checkpoint-every)
     * restarts benches whose configs never reached their first
     * checkpoint.
     */
    void restoreCheckpoint(const std::string &dir, bool force,
                           bool lenient = false);

    /** True once restoreCheckpoint has run (warm start). */
    bool restored() const { return _restored; }

    /** True when every object can serialize right now. */
    bool checkpointSafeNow() const;

  private:
    friend class SimObject;

    void registerObject(SimObject *obj) { _objects.push_back(obj); }
    void unregisterObject(SimObject *obj);

    void attachInstrument(EventInstrument *instrument);

    EventQueue _eq;
    /**
     * Declared first among the registries so it outlives every
     * component (and RetryList) constructed against this Simulation.
     */
    fault::FaultDomain _faultDomain;
    std::vector<SimObject *> _objects;
    StatGroup _statsRoot;
    /** Parent of kernel-owned stats: sim.profile.*, sim.pool.*. */
    StatGroup _simGroup;
    /** Parent of correctness-tooling stats: sim.check.*. */
    StatGroup _checkGroup;
    Scalar _statEventHash;
    /**
     * Null unless built with EMERALD_CHECKS. Declared before the
     * packet pool, which holds a pointer to it, and published on
     * _faultDomain so RetryLists can resolve it.
     */
    std::unique_ptr<check::CheckContext> _checkContext;
    std::unique_ptr<PacketPool> _packetPool;
    std::unique_ptr<EventProfiler> _profiler;
    std::unique_ptr<EventTracer> _tracer;
    std::unique_ptr<check::DeterminismVerifier> _determinism;
    InstrumentChain _instruments;
    bool _profiling = false;
    std::vector<std::unique_ptr<ClockDomain>> _domains;
    std::string _statsOutOnExit;
    std::unique_ptr<fault::FaultInjector> _faultInjector;
    std::unique_ptr<fault::ProgressWatchdog> _watchdog;
    CheckpointRegistry _ckptRegistry;
    std::uint64_t _configFingerprint = 0;
    /** Extra (non-SimObject) checkpoint participants, in order. */
    std::vector<std::pair<std::string, Serializable *>> _extras;
    std::unique_ptr<CheckpointTrigger> _ckptTrigger;
    bool _restored = false;
};

} // namespace emerald

#endif // EMERALD_SIM_SIMULATION_HH
