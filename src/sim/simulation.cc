#include "sim/simulation.hh"

#include <fstream>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "sim/check/context.hh"
#include "sim/check/determinism.hh"
#include "sim/fault/fault_injector.hh"
#include "sim/fault/watchdog.hh"
#include "sim/logging.hh"
#include "sim/serialize/serialize.hh"
#include "sim/sim_object.hh"

namespace emerald
{

/**
 * Fires checkpoint saves from the event-queue instrument chain:
 * between events, after the determinism verifier has folded the
 * just-processed one, so the saved hash covers exactly the
 * pre-checkpoint prefix and the event stream itself is never
 * perturbed (no probe events).
 *
 * One-shot mode (--checkpoint-at) saves straight into the configured
 * directory and stays attached but inert after firing. Recurring
 * mode (--checkpoint-every) re-arms after every save and writes
 * atomically-renamed rotations under the directory instead
 * (Simulation::saveRotatedCheckpoint), keeping only the newest K.
 */
class CheckpointTrigger : public EventInstrument
{
  public:
    CheckpointTrigger(Simulation &sim, Tick at, std::string dir)
        : _sim(sim), _at(at), _dir(std::move(dir))
    {}

    CheckpointTrigger(Simulation &sim, Tick every, std::string dir,
                      unsigned keep)
        : _sim(sim), _at(every), _dir(std::move(dir)), _every(every),
          _keep(keep)
    {}

    void
    onEvent(const std::string &name, Tick when, int priority,
            std::uint64_t wall_ns) override
    {
        (void)name;
        (void)priority;
        (void)wall_ns;
        if (_fired || when < _at)
            return;
        if (!_sim.checkpointSafeNow()) {
            if (!_deferred) {
                _deferred = true;
                inform("checkpoint at tick %llu deferred: waiting for "
                       "a quiescent boundary (open frame or busy "
                       "core)", (unsigned long long)_at);
            }
            return;
        }
        _deferred = false;
        if (_every == 0) {
            _fired = true;
            _sim.saveCheckpoint(_dir);
            return;
        }
        _sim.saveRotatedCheckpoint(_dir, _keep);
        // Re-arm relative to now, not to _at: a long quiescence
        // deferral must not make up for lost rotations in a burst.
        _at = when + _every;
    }

    /**
     * After a restore jumped the clock, push the next firing a full
     * period past the restored tick; without this a recurring
     * trigger would fire at the first post-restore event.
     */
    void
    rebase(Tick now)
    {
        if (_every > 0)
            _at = now + _every;
    }

  private:
    Simulation &_sim;
    Tick _at;
    std::string _dir;
    /** 0 = one-shot (--checkpoint-at) mode. */
    Tick _every = 0;
    unsigned _keep = 0;
    bool _fired = false;
    bool _deferred = false;
};

Simulation::Simulation()
    : _statsRoot(""), _simGroup(_statsRoot, "sim"),
      _checkGroup(_simGroup, "check"),
      _statEventHash(_checkGroup, "event_hash",
                     "FNV hash of the processed event stream "
                     "(53-bit fold; 0 = check disabled)")
{
#ifdef EMERALD_CHECKS
    _checkContext = std::make_unique<check::CheckContext>(
        _eq, &_faultDomain);
    _faultDomain.setCheckContext(_checkContext.get());
#endif
    // Constructed here, not in the init list, so the pool can carry
    // the check context created just above.
    _packetPool =
        std::make_unique<PacketPool>(_simGroup, _checkContext.get());
    _profiler = std::make_unique<EventProfiler>(_simGroup);
}

Simulation::~Simulation()
{
    // Leak/quiescence verification must run while components (and the
    // packet pool) are still alive; a drained event queue is the gate
    // that distinguishes leaks from traffic legally still in flight.
    if (_checkContext)
        _checkContext->onTeardown(_eq.empty());

    // The injector and the checkers die with this object; clear the
    // domain's pointers so nothing resolves them mid-teardown.
    _faultDomain.setInjector(nullptr);
    _faultDomain.setCheckContext(nullptr);

    flushStatsSink();
}

void
Simulation::writeStatsAtExit(const std::string &path)
{
    fatal_if(path.rfind("sqlite:", 0) == 0,
             "--sim-stats-out=%s: the exit dump takes a JSON path; use "
             "--stats-out=%s to store the run in the sweep database",
             path.c_str(), path.c_str());
    _statsOutOnExit = path == "null" ? "" : path;
    // Append mode probes without truncating: the dump is written at
    // flushStatsSink.
    fatal_if(!_statsOutOnExit.empty() &&
                 !std::ofstream(_statsOutOnExit, std::ios::app),
             "cannot open --sim-stats-out file '%s' for writing",
             _statsOutOnExit.c_str());
}

void
Simulation::flushStatsSink()
{
    if (_statsOutOnExit.empty())
        return;
    std::ofstream os(_statsOutOnExit);
    if (os.is_open())
        dumpStatsJson(os);
    else
        warn("cannot open stats file '%s'", _statsOutOnExit.c_str());
    _statsOutOnExit.clear();
}

void
Simulation::unregisterObject(SimObject *obj)
{
    auto it = std::find(_objects.begin(), _objects.end(), obj);
    if (it != _objects.end())
        _objects.erase(it);
}

void
Simulation::configureFaults(const std::string &plan_text,
                            std::uint64_t seed)
{
    fault::FaultPlan plan = fault::FaultPlan::parse(plan_text);
    if (plan.empty())
        return;
    panic_if(_faultInjector != nullptr,
             "configureFaults called twice on one Simulation");
    _faultInjector = std::make_unique<fault::FaultInjector>(
        _eq, _simGroup, std::move(plan), seed);
    // Publish on the domain: this is how the protocol seams
    // (offer/wake/stall/link-delay) find the injector.
    _faultDomain.setInjector(_faultInjector.get());
}

void
Simulation::enableWatchdog(Tick budget, fault::WatchdogMode mode,
                           const std::string &hang_report_path)
{
    if (_watchdog)
        return;
    _watchdog = std::make_unique<fault::ProgressWatchdog>(
        *this, _simGroup, budget, mode, hang_report_path);
    _watchdog->arm();
}

void
Simulation::enableDeterminismCheck()
{
    if (_determinism)
        return;
    _determinism = std::make_unique<check::DeterminismVerifier>(
        _statEventHash);
    attachInstrument(_determinism.get());
}

std::uint64_t
Simulation::determinismHash() const
{
    return _determinism ? _determinism->hash() : 0;
}

ClockDomain &
Simulation::createClockDomain(double mhz, const std::string &name)
{
    _domains.push_back(
        std::make_unique<ClockDomain>(_eq, periodFromMHz(mhz), name));
    return *_domains.back();
}

ClockDomain *
Simulation::findClockDomain(const std::string &name)
{
    for (const auto &domain : _domains) {
        if (domain->name() == name)
            return domain.get();
    }
    return nullptr;
}

ClockDomain &
Simulation::clockDomain(const std::string &name)
{
    ClockDomain *domain = findClockDomain(name);
    fatal_if(!domain, "no clock domain named '%s'", name.c_str());
    return *domain;
}

void
Simulation::attachInstrument(EventInstrument *instrument)
{
    _instruments.add(instrument);
    _eq.setInstrument(&_instruments);
}

void
Simulation::enableProfiling()
{
    if (_profiling)
        return;
    _profiling = true;
    attachInstrument(_profiler.get());
}

EventTracer &
Simulation::enableTracing(const std::string &path)
{
    if (!_tracer) {
        _tracer = std::make_unique<EventTracer>(path);
        attachInstrument(_tracer.get());
    }
    return *_tracer;
}

void
Simulation::registerSerializable(const std::string &name,
                                 Serializable &obj)
{
    for (const auto &[existing, ptr] : _extras)
        panic_if(existing == name,
                 "registerSerializable: duplicate name '%s'",
                 name.c_str());
    _extras.emplace_back(name, &obj);
}

bool
Simulation::checkpointSafeNow() const
{
    for (const SimObject *obj : _objects) {
        if (!obj->checkpointSafe())
            return false;
    }
    for (const auto &[name, obj] : _extras) {
        if (!obj->checkpointSafe())
            return false;
    }
    return true;
}

void
Simulation::scheduleCheckpoint(Tick at, const std::string &dir)
{
    panic_if(_ckptTrigger != nullptr,
             "scheduleCheckpoint called twice on one Simulation");
    fatal_if(dir.empty(), "--checkpoint-at needs a checkpoint "
             "directory (--checkpoint-dir)");
    _ckptTrigger = std::make_unique<CheckpointTrigger>(*this, at, dir);
    attachInstrument(_ckptTrigger.get());
}

void
Simulation::scheduleRecurringCheckpoint(Tick every,
                                        const std::string &dir,
                                        unsigned keep)
{
    panic_if(_ckptTrigger != nullptr,
             "scheduleRecurringCheckpoint: a checkpoint trigger is "
             "already armed on this Simulation");
    fatal_if(every == 0,
             "--checkpoint-every needs a nonzero period");
    fatal_if(dir.empty(), "--checkpoint-every needs a checkpoint "
             "directory (--checkpoint-dir)");
    fatal_if(keep == 0, "--checkpoint-keep must be at least 1");
    _ckptTrigger =
        std::make_unique<CheckpointTrigger>(*this, every, dir, keep);
    attachInstrument(_ckptTrigger.get());
}

void
Simulation::saveRotatedCheckpoint(const std::string &base,
                                  unsigned keep)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(base, ec);
    fatal_if(static_cast<bool>(ec),
             "cannot create checkpoint directory '%s': %s",
             base.c_str(), ec.message().c_str());

    // Write into a scratch directory first; only a complete
    // checkpoint gets renamed into place, so a reader can never
    // observe a torn auto-* rotation (rename(2) is atomic).
    std::string tmp = base + "/.tmp-auto";
    fs::remove_all(tmp, ec);
    saveCheckpoint(tmp);

    std::string final_name =
        strprintf("auto-%020llu", (unsigned long long)_eq.curTick());
    std::string final_dir = base + "/" + final_name;
    fs::remove_all(final_dir, ec);
    fs::rename(tmp, final_dir, ec);
    fatal_if(static_cast<bool>(ec),
             "cannot publish checkpoint rotation '%s': %s",
             final_dir.c_str(), ec.message().c_str());

    // Prune to the newest `keep` rotations.
    std::vector<std::string> autos = listRotations(base);
    for (std::size_t i = 0; i + keep < autos.size(); ++i)
        fs::remove_all(autos[i], ec);
}

void
Simulation::saveCheckpoint(const std::string &dir)
{
    fatal_if(!checkpointSafeNow(),
             "saveCheckpoint('%s'): a component is mid-operation and "
             "cannot serialize; use --checkpoint-at, which waits for "
             "a quiescent boundary", dir.c_str());

    CheckpointWriter w(dir, _configFingerprint, _eq.curTick(),
                       _eq.numProcessed());

    // Kernel state first: the pending-event table...
    CheckpointOut &events = w.section("sim.events");
    auto live = _eq.liveEventsSorted();
    events.putU64("num_events", live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
        const auto &e = live[i];
        std::string ev_name = _ckptRegistry.eventName(*e.event);
        fatal_if(ev_name.empty(),
                 "checkpoint: pending event '%s' (tick %llu) is not "
                 "in the checkpoint registry — its owner must call "
                 "registerCheckpointEvent(), or (watchdog/fault "
                 "timers) cannot be armed across a checkpoint",
                 e.event->name().c_str(), (unsigned long long)e.when);
        std::string key = strprintf("e%zu", i);
        events.putStr(key + ".name", ev_name);
        events.putTick(key + ".when", e.when);
    }

    // ...the packet pool's internal shadow of its high-water stat...
    CheckpointOut &pool = w.section("sim.pool");
    pool.putU64("live_high_water", _packetPool->liveHighWater());

    // ...and the determinism verifier, so a restored run resumes the
    // cold run's hash stream (the warm-start acceptance oracle).
    CheckpointOut &chk = w.section("sim.check");
    chk.putBool("determinism", _determinism != nullptr);
    if (_determinism) {
        chk.putU64("hash", _determinism->hash());
        chk.putU64("num_events", _determinism->numEvents());
    }

    for (const SimObject *obj : _objects)
        obj->serialize(w.section(obj->name()));
    for (const auto &[name, extra] : _extras)
        extra->serialize(w.section(name));

    // The whole stats tree in one section, keyed by full stat path.
    _statsRoot.serializeStats(w.section("stats"));

    w.finalize();

    // Boundary stats snapshot: lets a warm run's deltas be diffed
    // against the cold run's measured region (tools/check_restore.py).
    std::string stats_path = dir + "/stats.json";
    std::ofstream stats(stats_path);
    if (stats.is_open())
        dumpStatsJson(stats);
    else
        warn("cannot write '%s'", stats_path.c_str());

    inform("checkpoint written to '%s' at tick %llu (%llu events, "
           "%zu live packets)", dir.c_str(),
           (unsigned long long)_eq.curTick(),
           (unsigned long long)_eq.numProcessed(),
           static_cast<std::size_t>(_packetPool->live()));
}

namespace
{

/**
 * Pick the directory restoreCheckpoint() actually reads. @p base is
 * either a checkpoint directory itself (manifest.json present) or a
 * rotation base holding auto-<tick> subdirectories, in which case the
 * newest rotation that passes the integrity probe wins and corrupt
 * ones are skipped with a warning — a torn or bit-rotted rotation is
 * recoverable, not fatal. Returns "" for a lenient cold start.
 */
std::string
resolveRestoreSource(const std::string &base, bool lenient)
{
    namespace fs = std::filesystem;
    std::error_code ec;

    if (fs::exists(base + "/manifest.json", ec)) {
        CkptProbe probe = probeCheckpoint(base);
        if (probe.ok())
            return base;
        if (!lenient) {
            fatal("checkpoint '%s' is damaged (%s): %s",
                  base.c_str(), ckptIntegrityName(probe.status),
                  probe.detail.c_str());
        }
        warn("checkpoint '%s' is damaged (%s): %s — starting cold",
             base.c_str(), ckptIntegrityName(probe.status),
             probe.detail.c_str());
        return "";
    }

    std::vector<std::string> autos = listRotations(base);
    for (auto it = autos.rbegin(); it != autos.rend(); ++it) {
        const std::string &dir = *it;
        CkptProbe probe = probeCheckpoint(dir);
        if (probe.ok())
            return dir;
        warn("ckpt-corrupt: skipping rotation '%s' (%s): %s",
             dir.c_str(), ckptIntegrityName(probe.status),
             probe.detail.c_str());
    }

    if (lenient) {
        warn("restore directory '%s' holds no usable checkpoint — "
             "starting cold", base.c_str());
        return "";
    }
    fatal("restore directory '%s' holds no usable checkpoint (no "
          "manifest.json and no intact auto-* rotation)",
          base.c_str());
}

} // namespace

void
Simulation::restoreCheckpoint(const std::string &dir, bool force,
                              bool lenient)
{
    panic_if(dir.empty(), "restoreCheckpoint without a directory");
    panic_if(_restored, "restoreCheckpoint called twice");
    panic_if(_eq.numProcessed() != 0,
             "restoreCheckpoint after events have run");

    // Empty only for a lenient cold start: the run proceeds from
    // scratch and restored() stays false.
    std::string source = resolveRestoreSource(dir, lenient);
    if (source.empty())
        return;

    CheckpointReader r(source);
    if (r.configFingerprint() != _configFingerprint) {
        if (force) {
            warn("checkpoint '%s' was taken under config fingerprint "
                 "%016llx but this run is %016llx; proceeding because "
                 "of --restore-force", source.c_str(),
                 (unsigned long long)r.configFingerprint(),
                 (unsigned long long)_configFingerprint);
        } else {
            fatal("checkpoint '%s' was taken under config fingerprint "
                  "%016llx but this run is %016llx — restoring state "
                  "into a different configuration would be silently "
                  "corrupt. Re-run with the checkpoint's "
                  "configuration, or pass --restore-force to "
                  "override.", source.c_str(),
                  (unsigned long long)r.configFingerprint(),
                  (unsigned long long)_configFingerprint);
        }
    }

    // Topology constructors pre-schedule events (clock ticks, DASH
    // quantum timers); drop them all — the checkpoint's pending set
    // is re-scheduled below — then jump the clock.
    _eq.clearForRestore();
    _eq.restoreTime(r.tick(), r.numProcessed());

    for (SimObject *obj : _objects) {
        CheckpointIn in = r.section(obj->name());
        obj->unserialize(in);
    }
    for (const auto &[name, extra] : _extras) {
        CheckpointIn in = r.section(name);
        extra->unserialize(in);
    }

    // Stats after objects: component restore re-allocates in-flight
    // packets, which inflates sim.pool.* — overwriting the tree with
    // the checkpoint's values puts every counter back to the cold
    // run's boundary state.
    {
        CheckpointIn in = r.section("stats");
        _statsRoot.unserializeStats(in);
    }
    {
        CheckpointIn in = r.section("sim.pool");
        _packetPool->restoreLiveHighWater(
            in.getU64("live_high_water"));
    }
    {
        CheckpointIn in = r.section("sim.check");
        if (_determinism) {
            fatal_if(!in.getBool("determinism"),
                     "--check-determinism is on but checkpoint '%s' "
                     "was taken without it; the event hash cannot be "
                     "resumed. Re-take the checkpoint with "
                     "--check-determinism.", source.c_str());
            _determinism->restoreState(in.getU64("hash"),
                                       in.getU64("num_events"));
        }
    }

    // Re-schedule the pending events by registry name. The entries
    // were saved in service order, so scheduling them in sequence
    // reproduces the cold run's same-tick tie-breaks with fresh
    // sequence numbers.
    {
        CheckpointIn in = r.section("sim.events");
        std::uint64_t n = in.getU64("num_events");
        for (std::uint64_t i = 0; i < n; ++i) {
            std::string key =
                strprintf("e%llu", (unsigned long long)i);
            std::string ev_name = in.getStr(key + ".name");
            Event *ev = _ckptRegistry.findEvent(ev_name);
            fatal_if(!ev,
                     "checkpoint restore: no event named '%s' in this "
                     "topology — the checkpointed configuration does "
                     "not match", ev_name.c_str());
            _eq.schedule(*ev, in.getTick(key + ".when"));
        }
    }

    // A recurring trigger must not fire (and overwrite the rotation
    // it just read) at the first post-restore event.
    if (_ckptTrigger)
        _ckptTrigger->rebase(_eq.curTick());

    _restored = true;
    inform("restored checkpoint '%s': tick %llu, %llu events "
           "processed, %zu live packets", source.c_str(),
           (unsigned long long)r.tick(),
           (unsigned long long)r.numProcessed(),
           static_cast<std::size_t>(_packetPool->live()));
}

} // namespace emerald
