#include "sim/simulation_builder.hh"

#include "sim/config.hh"
#include "sim/fault/fault_plan.hh"
#include "sim/logging.hh"
#include "sim/fault/watchdog.hh"
#include "sim/simulation.hh"

namespace emerald
{

SimulationBuilder &
SimulationBuilder::clockDomain(const std::string &name, double mhz)
{
    _domains.push_back({name, mhz});
    return *this;
}

SimulationBuilder &
SimulationBuilder::traceFile(const std::string &path)
{
    _traceFile = path;
    return *this;
}

SimulationBuilder &
SimulationBuilder::profiling(bool on)
{
    _profiling = on;
    return *this;
}

SimulationBuilder &
SimulationBuilder::statsOutOnExit(const std::string &path)
{
    _statsOutOnExit = path;
    return *this;
}

SimulationBuilder &
SimulationBuilder::checkDeterminism(bool on)
{
    _checkDeterminism = on;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultPlan(const std::string &plan, std::uint64_t seed)
{
    _faultPlan = plan;
    _faultSeed = seed;
    return *this;
}

SimulationBuilder &
SimulationBuilder::watchdog(Tick budget, const std::string &mode)
{
    _watchdogTicks = budget;
    _watchdogMode = mode;
    return *this;
}

SimulationBuilder &
SimulationBuilder::checkpointAt(Tick at, const std::string &dir)
{
    _checkpointAt = at;
    _checkpointDir = dir;
    return *this;
}

SimulationBuilder &
SimulationBuilder::checkpointEvery(Tick every, const std::string &dir,
                                   unsigned keep)
{
    _checkpointEvery = every;
    _checkpointDir = dir;
    _checkpointKeep = keep;
    _rig.restoreLenient = every > 0;
    return *this;
}

SimulationBuilder &
SimulationBuilder::hangReportPath(const std::string &path)
{
    _hangReportPath = path;
    return *this;
}

SimulationBuilder &
SimulationBuilder::restoreFrom(const std::string &dir, bool force)
{
    _rig.restoreDir = dir;
    _rig.restoreForce = force;
    return *this;
}

SimulationBuilder &
SimulationBuilder::subdir(const std::string &label)
{
    if (!_checkpointDir.empty())
        _checkpointDir += "/" + label;
    if (!_rig.restoreDir.empty())
        _rig.restoreDir += "/" + label;
    return *this;
}

SimulationBuilder &
SimulationBuilder::warpScheduler(const std::string &policy)
{
    _rig.warpSched = policy;
    return *this;
}

SimulationBuilder &
SimulationBuilder::memScheduler(const std::string &policy)
{
    _rig.memSched = policy;
    return *this;
}

SimulationBuilder &
SimulationBuilder::captureTrace(const std::string &dir)
{
    _rig.captureTraceDir = dir;
    return *this;
}

SimulationBuilder &
SimulationBuilder::replayTrace(const std::string &dir)
{
    _rig.replayTraceDir = dir;
    return *this;
}

SimulationBuilder &
SimulationBuilder::observability(const Config &cfg)
{
    traceFile(cfg.getString("trace-file", _traceFile));
    profiling(cfg.getBool("profile", _profiling));
    statsOutOnExit(cfg.getString("sim-stats-out", _statsOutOnExit));
    checkDeterminism(cfg.getBool("check-determinism", _checkDeterminism));
    faultPlan(cfg.getString("fault-plan", _faultPlan),
              cfg.getU64("fault-seed", _faultSeed));
    if (cfg.has("watchdog-ticks")) {
        _watchdogTicks = fault::parseDuration(
            cfg.getString("watchdog-ticks", ""), "--watchdog-ticks");
    }
    _watchdogMode = cfg.getString("watchdog-mode", _watchdogMode);
    if (cfg.has("checkpoint-at")) {
        checkpointAt(fault::parseDuration(
                         cfg.getString("checkpoint-at", ""),
                         "--checkpoint-at"),
                     cfg.getString("checkpoint-dir", "ckpt"));
    }
    if (cfg.has("checkpoint-every")) {
        checkpointEvery(
            fault::parseDuration(cfg.getString("checkpoint-every", ""),
                                 "--checkpoint-every"),
            cfg.getString("checkpoint-dir", "ckpt"),
            static_cast<unsigned>(cfg.getU64("checkpoint-keep", 3)));
    }
    hangReportPath(cfg.getString("hang-report-path", _hangReportPath));
    if (cfg.has("restore")) {
        restoreFrom(cfg.getString("restore", ""),
                    cfg.getBool("restore-force", false));
    }
    warpScheduler(cfg.getString("warp-sched", _rig.warpSched));
    memScheduler(cfg.getString("mem-sched", _rig.memSched));
    captureTrace(cfg.getString("capture-trace", _rig.captureTraceDir));
    replayTrace(cfg.getString("replay-trace", _rig.replayTraceDir));
    return *this;
}

std::unique_ptr<Simulation>
SimulationBuilder::build() const
{
    auto sim = std::make_unique<Simulation>();
    applyTo(*sim);
    return sim;
}

void
SimulationBuilder::applyTo(Simulation &sim) const
{
    for (const DomainSpec &spec : _domains)
        sim.createClockDomain(spec.mhz, spec.name);
    if (!_traceFile.empty())
        sim.enableTracing(_traceFile);
    if (_profiling)
        sim.enableProfiling();
    if (!_statsOutOnExit.empty())
        sim.writeStatsAtExit(_statsOutOnExit);
    if (_checkDeterminism)
        sim.enableDeterminismCheck();
    // The checkpoint trigger attaches after the determinism verifier
    // so a saved hash always covers the just-processed event.
    fatal_if(_checkpointAt > 0 && _checkpointEvery > 0,
             "--checkpoint-at and --checkpoint-every cannot combine: "
             "one trigger per simulation");
    if (_checkpointEvery > 0) {
        sim.scheduleRecurringCheckpoint(_checkpointEvery,
                                        _checkpointDir,
                                        _checkpointKeep);
    } else if (!_checkpointDir.empty()) {
        sim.scheduleCheckpoint(_checkpointAt, _checkpointDir);
    }
    if (!_faultPlan.empty())
        sim.configureFaults(_faultPlan, _faultSeed);
    if (_watchdogTicks > 0) {
        sim.enableWatchdog(_watchdogTicks,
                           fault::watchdogModeFromString(_watchdogMode),
                           _hangReportPath);
    }
    // Capture *during* replay is legal (round-trip verification),
    // but neither mode can mix with checkpoint/restore: the trace
    // writer and replay driver carry no checkpointable state.
    fatal_if((!_rig.captureTraceDir.empty() ||
              !_rig.replayTraceDir.empty()) &&
                 (!_rig.restoreDir.empty() || !_checkpointDir.empty()),
             "--capture-trace/--replay-trace cannot combine with "
             "checkpoint/restore");
}

} // namespace emerald
