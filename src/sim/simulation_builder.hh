/**
 * @file
 * Fluent construction recipe for a Simulation: clock domains,
 * observability (tracing / profiling), and stats sinks. Replaces the
 * copy-pasted "parse config, wire tracer, dump stats at the end"
 * prologue of the benches and examples.
 */

#ifndef EMERALD_SIM_SIMULATION_BUILDER_HH
#define EMERALD_SIM_SIMULATION_BUILDER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace emerald
{

class Config;
class Simulation;

/**
 * The run options a rig acts on itself rather than through
 * SimulationBuilder::applyTo(): which scheduling policies to build,
 * whether its memory traffic is captured or replayed, and which
 * checkpoint to restore once its topology exists. Rigs read them
 * with SimulationBuilder::rigOptions().
 */
struct RigOptions
{
    /** --warp-sched / --mem-sched registry names; "" = rig default. */
    std::string warpSched;
    std::string memSched;
    /** --capture-trace / --replay-trace directories; "" = off. */
    std::string captureTraceDir;
    std::string replayTraceDir;
    /** --restore directory ("" = cold start) and --restore-force. */
    std::string restoreDir;
    bool restoreForce = false;
    /**
     * Start cold when restoreDir holds no usable checkpoint instead
     * of dying. Set under --checkpoint-every: a supervised rerun may
     * restart a config that never reached its first rotation.
     */
    bool restoreLenient = false;
};

/**
 * Collects a declarative description of a Simulation and materializes
 * it, either into a fresh instance (build()) or onto a Simulation a
 * rig already owns (applyTo()). The recipe is inert data: a builder
 * can be copied, passed across APIs (e.g. into SocTop), and reused.
 *
 *   auto sim = SimulationBuilder()
 *                  .clockDomain("gpu_clk", 1000.0)
 *                  .traceFile("trace.json")
 *                  .profiling()
 *                  .build();
 */
class SimulationBuilder
{
  public:
    /** Add a clock domain; retrieve it via Simulation::clockDomain. */
    SimulationBuilder &clockDomain(const std::string &name, double mhz);

    /** Stream a Chrome-trace event log to @p path. */
    SimulationBuilder &traceFile(const std::string &path);

    /** Enable the sim.profile.* event counters. */
    SimulationBuilder &profiling(bool on = true);

    /**
     * Write the final dumpStatsJson tree to @p path at destruction
     * (--sim-stats-out; "" or "null" disables).
     */
    SimulationBuilder &statsOutOnExit(const std::string &path);

    /**
     * Hash the processed event stream into sim.check.event_hash for
     * run-to-run determinism diffing (works in every build type).
     */
    SimulationBuilder &checkDeterminism(bool on = true);

    /**
     * Run a fault-injection campaign: @p plan uses the --fault-plan
     * grammar (docs/fault_injection.md), @p seed drives every
     * stochastic site. An empty plan disables injection entirely.
     */
    SimulationBuilder &faultPlan(const std::string &plan,
                                 std::uint64_t seed = 1);

    /**
     * Arm the progress watchdog with a no-progress budget of
     * @p budget ticks; @p mode is "abort" or "degrade" (see
     * sim/fault/watchdog.hh). budget == 0 disables.
     */
    SimulationBuilder &watchdog(Tick budget,
                                const std::string &mode = "abort");

    /**
     * Checkpoint into @p dir at the first quiescent inter-event
     * boundary at or after @p at ticks (--checkpoint-at /
     * --checkpoint-dir). at == 0 with an empty dir disables.
     */
    SimulationBuilder &checkpointAt(Tick at, const std::string &dir);

    /**
     * Rotate auto-checkpoints into @p dir every @p every ticks
     * (--checkpoint-every / --checkpoint-dir), keeping the newest
     * @p keep (--checkpoint-keep). every == 0 disables. Mutually
     * exclusive with checkpointAt().
     */
    SimulationBuilder &checkpointEvery(Tick every,
                                       const std::string &dir,
                                       unsigned keep = 3);

    /**
     * Where the watchdog's abort path writes its structured hang
     * report as JSON (--hang-report-path); "" disables. The run
     * supervisor uses the file to classify a dead child as a hang.
     */
    SimulationBuilder &hangReportPath(const std::string &path);

    /**
     * Warm-start from the checkpoint directory @p dir (--restore).
     * The restore itself runs after topology construction (SocTop
     * triggers it; StandaloneGpu refuses it); @p force turns the
     * config-fingerprint mismatch from fatal into a warning
     * (--restore-force).
     */
    SimulationBuilder &restoreFrom(const std::string &dir,
                                   bool force = false);

    /**
     * Scope the checkpoint and restore directories into a
     * @p label subdirectory. Benches that build several simulations
     * in one process (e.g. one per memory configuration) apply this
     * per run so each gets its own checkpoint directory under the
     * user-supplied base.
     */
    SimulationBuilder &subdir(const std::string &label);

    /**
     * Select the SIMT warp-scheduling policy by registry name
     * (--warp-sched: lrr, gto, wasp). "" keeps the default.
     */
    SimulationBuilder &warpScheduler(const std::string &policy);

    /**
     * Select the DRAM scheduling policy by registry name
     * (--mem-sched: frfcfs, dash). "" keeps the rig's per-config
     * default (SocTop: dash for DCB/DTB, frfcfs otherwise).
     */
    SimulationBuilder &memScheduler(const std::string &policy);

    /**
     * Record per-client memory traffic into directory @p dir
     * (--capture-trace); see docs/scheduling.md. "" disables.
     */
    SimulationBuilder &captureTrace(const std::string &dir);

    /**
     * Replay a captured memory trace from directory @p dir
     * (--replay-trace) instead of executing shaders. "" disables.
     */
    SimulationBuilder &replayTrace(const std::string &dir);

    /**
     * Read the observability keys from @p cfg: "trace-file" (path),
     * "profile" (bool), "sim-stats-out" (JSON path, dumped at exit),
     * "check-determinism" (bool, --check-determinism on the CLI),
     * the robustness keys "fault-plan" (campaign string),
     * "fault-seed" (integer), "watchdog-ticks" (duration: "1ms",
     * "250us", or raw ticks) and "watchdog-mode" (abort|degrade),
     * "hang-report-path" (file the watchdog's abort mode writes its
     * JSON hang report to), plus the checkpoint keys "checkpoint-at"
     * (duration), "checkpoint-every" (duration, rotating
     * auto-checkpoints), "checkpoint-keep" (rotation count, default
     * 3), "checkpoint-dir" (path, default "ckpt"), "restore" (path)
     * and "restore-force" (bool), the scheduler-policy keys "warp-sched"
     * and "mem-sched", and the trace keys "capture-trace" and
     * "replay-trace" (directories).
     */
    SimulationBuilder &observability(const Config &cfg);

    /** Create a Simulation and apply this recipe to it. */
    std::unique_ptr<Simulation> build() const;

    /** Apply this recipe to an existing Simulation. */
    void applyTo(Simulation &sim) const;

    /** What the rig itself must act on (see RigOptions). */
    const RigOptions &rigOptions() const { return _rig; }

    /**
     * Where this recipe writes checkpoints: --checkpoint-dir once
     * --checkpoint-at or --checkpoint-every is set, else "". The run
     * supervisor scans it for rotations to resume from.
     */
    const std::string &checkpointDir() const { return _checkpointDir; }

  private:
    struct DomainSpec
    {
        std::string name;
        double mhz;
    };

    std::vector<DomainSpec> _domains;
    std::string _traceFile;
    std::string _statsOutOnExit;
    bool _profiling = false;
    bool _checkDeterminism = false;
    std::string _faultPlan;
    std::uint64_t _faultSeed = 1;
    Tick _watchdogTicks = 0;
    std::string _watchdogMode = "abort";
    Tick _checkpointAt = 0;
    Tick _checkpointEvery = 0;
    unsigned _checkpointKeep = 3;
    std::string _checkpointDir;
    std::string _hangReportPath;
    RigOptions _rig;
};

} // namespace emerald

#endif // EMERALD_SIM_SIMULATION_BUILDER_HH
