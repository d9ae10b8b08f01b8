#include "sim/simulation.hh"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <vector>

#include "sim/check/context.hh"
#include "sim/check/determinism.hh"
#include "sim/fault/fault_injector.hh"
#include "sim/fault/watchdog.hh"
#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"
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

    /** The trigger reads ticks, not the clock. */
    bool timed() const override { return false; }

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
Simulation::atExit(std::function<void()> action)
{
    _exitActions.push_back(std::move(action));
}

void
Simulation::flushStatsSink()
{
    std::vector<std::function<void()>> actions;
    actions.swap(_exitActions);
    for (const auto &action : actions)
        action();
}

void
Simulation::registerObject(SimObject *obj)
{
    panic_if(findObject(obj->name()),
             "two SimObjects named '%s' in one Simulation: checkpoint "
             "references resolve by name", obj->name().c_str());
    _objects.push_back(obj);
}

SimObject *
Simulation::findObject(const std::string &name) const
{
    for (SimObject *obj : _objects)
        if (obj->name() == name)
            return obj;
    return nullptr;
}

const SimObject *
Simulation::recorderOf(const MemClient &client) const
{
    for (const SimObject *obj : _objects)
        if (obj->checkpointClient() == &client)
            return obj;
    return nullptr;
}

const SimObject *
Simulation::recorderOf(const MemRequestor &req) const
{
    for (const SimObject *obj : _objects)
        if (obj->checkpointRequestor() == &req)
            return obj;
    return nullptr;
}

Event *
Simulation::checkpointEvent(const std::string &name) const
{
    for (const SimObject *obj : _objects)
        for (Event *ev : obj->checkpointEvents())
            if (ev->name() == name)
                return ev;
    return nullptr;
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

ClockDomain &
Simulation::clockDomain(const std::string &name)
{
    for (const auto &domain : _domains) {
        if (domain->name() == name)
            return *domain;
    }
    fatal("no clock domain named '%s'", name.c_str());
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
Simulation::serializeSections(const std::string &dir, const OpenSection &open)
{
    // Kernel state first: the pending-event table, in service order.
    // Re-scheduling the entries in sequence reproduces the cold run's
    // same-tick tie-breaks with fresh sequence numbers.
    {
        CheckpointIo io = open("sim.events");
        std::vector<EventQueue::LiveEventRef> live = _eq.liveEventsSorted();
        io.sequence(
            "num_events", "e", live,
            [&](const std::string &key, EventQueue::LiveEventRef &e) {
                std::string name;
                if (e.event) {
                    fatal_if(checkpointEvent(e.event->name()) != e.event,
                             "checkpoint: pending event '%s' (tick %llu) "
                             "is not in the checkpoint registry — its "
                             "owner must call registerCheckpointEvent(), "
                             "or (watchdog/fault timers) cannot be armed "
                             "across a checkpoint",
                             e.event->name().c_str(),
                             (unsigned long long)e.when);
                    name = e.event->name();
                }
                io.scalar(key + ".name", name);
                io.scalar(key + ".when", e.when);
                if (!e.event) {
                    e.event = checkpointEvent(name);
                    fatal_if(!e.event,
                             "checkpoint restore: no event named '%s' in "
                             "this topology — the checkpointed "
                             "configuration does not match",
                             name.c_str());
                }
            },
            [this](EventQueue::LiveEventRef e) {
                _eq.schedule(*e.event, e.when);
            });
    }

    // ...the packet pool's internal shadow of its high-water stat...
    {
        CheckpointIo io = open("sim.pool");
        std::uint64_t high_water = _packetPool->liveHighWater();
        io.scalar("live_high_water", high_water);
        if (io.loading())
            _packetPool->restoreLiveHighWater(high_water);
    }

    // ...and the determinism verifier, so a restored run resumes the
    // cold run's hash stream (the warm-start acceptance oracle).
    {
        CheckpointIo io = open("sim.check");
        bool determinism = _determinism != nullptr;
        io.scalar("determinism", determinism);
        fatal_if(_determinism && !determinism,
                 "--check-determinism is on but checkpoint '%s' was "
                 "taken without it; the event hash cannot be resumed. "
                 "Re-take the checkpoint with --check-determinism.",
                 dir.c_str());
        if (_determinism)
            _determinism->serialize(io);
    }

    // Component restore re-allocates in-flight packets, which inflates
    // sim.pool.*; the stats tree comes last, so it puts every counter
    // back to the cold run's boundary state.
    for (SimObject *obj : _objects) {
        CheckpointIo io = open(obj->name());
        obj->serialize(io);
    }
    for (const auto &[name, extra] : _extras) {
        CheckpointIo io = open(name);
        extra->serialize(io);
    }
    CheckpointIo io = open("stats");
    _statsRoot.serializeStats(io);
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
    serializeSections(dir, [&](const std::string &name) {
        return CheckpointIo(w.section(name), this);
    });
    w.finalize();

    inform("checkpoint written to '%s' at tick %llu (%llu events, "
           "%zu live packets)", dir.c_str(),
           (unsigned long long)_eq.curTick(),
           (unsigned long long)_eq.numProcessed(),
           static_cast<std::size_t>(_packetPool->live()));
}

namespace
{

/**
 * Open the checkpoint restoreCheckpoint() actually reads. @p base is
 * either a checkpoint directory itself (data.bin present) or a
 * rotation base holding auto-<tick> subdirectories, in which case the
 * newest rotation that opens intact wins and corrupt ones are skipped
 * with a warning — a torn or bit-rotted rotation is recoverable, not
 * fatal. Returns nullopt for a lenient cold start.
 */
std::optional<CheckpointReader>
openRestoreSource(const std::string &base, bool lenient)
{
    std::error_code ec;
    bool single = std::filesystem::exists(base + "/data.bin", ec);
    std::vector<std::string> candidates =
        single ? std::vector<std::string>{base} : listRotations(base);
    CkptProbe probe;
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
        if (auto reader = CheckpointReader::open(*it, probe))
            return reader;
        fatal_if(single && !lenient, "checkpoint '%s' is damaged (%s): %s",
                 it->c_str(), ckptIntegrityName(probe.status),
                 probe.detail.c_str());
        warn("ckpt-corrupt: skipping checkpoint '%s' (%s): %s",
             it->c_str(), ckptIntegrityName(probe.status),
             probe.detail.c_str());
    }
    fatal_if(!lenient,
             "restore directory '%s' holds no usable checkpoint (no "
             "data.bin and no intact auto-* rotation)",
             base.c_str());
    warn("restore directory '%s' holds no usable checkpoint — "
         "starting cold", base.c_str());
    return std::nullopt;
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
    std::optional<CheckpointReader> reader =
        openRestoreSource(dir, lenient);
    if (!reader)
        return;
    const CheckpointReader &r = *reader;
    const std::string &source = r.dir();
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
    // is re-scheduled from sim.events — then jump the clock.
    _eq.clearForRestore();
    _eq.restoreTime(r.tick(), r.numProcessed());
    serializeSections(source, [&](const std::string &name) {
        return CheckpointIo(r.section(name), this);
    });

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
