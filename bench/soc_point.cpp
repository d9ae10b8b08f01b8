/**
 * @file
 * soc_point: the sweep unit. Runs exactly one SocTop whose every
 * parameter comes from the command line (one point of a sweep grid)
 * and records absolute frame times, event counts, the event-stream
 * hash and the full stats tree. It prints the per-frame prep/render
 * timeline and the DRAM and display summary. emerald_sweep expands a
 * grid spec into one soc_point invocation per point (docs/sweeps.md);
 * it is not a paper figure, so run_benches.sh skips it (kind = Aux).
 *
 * Axes: --model (a workloadName such as M3-mask), --config
 * (BAS|DCB|DTB|HMC), --highload, --frames, --prep, --width,
 * --height, --fps (GPU frame period), --channels (DRAM channels),
 * the --npu-* accelerator axes (soc/configs.hh applyNpuConfig),
 * plus the shared --warp-sched/--mem-sched/--fault-plan/... keys the
 * SimulationBuilder reads.
 */

#include <chrono>

#include "harness.hh"
#include "registry.hh"

using namespace emerald;
using namespace emerald::bench;

namespace
{

int
runScenario(int argc, char **argv)
{
    BenchHarness harness(argc, argv, "soc_point");
    const Config &cfg = harness.cfg;

    soc::SocParams p = caseStudy1Params(
        scenes::workloadFromName(cfg.getString("model", "M2-cube")),
        soc::memConfigFromName(cfg.getString("config", "BAS")),
        cfg.getBool("highload", true));
    p.frames = static_cast<unsigned>(
        cfg.getU64("frames", harness.quick ? 3 : p.frames));
    p.cpuPrepRequests = cfg.getU64("prep", p.cpuPrepRequests);
    p.fbWidth = static_cast<unsigned>(cfg.getU64("width", p.fbWidth));
    p.fbHeight =
        static_cast<unsigned>(cfg.getU64("height", p.fbHeight));
    p.dramChannels = static_cast<unsigned>(
        cfg.getU64("channels", p.dramChannels));
    fatal_if(p.dramChannels < 1u ||
                 (p.memConfig == soc::MemConfig::HMC &&
                  p.dramChannels < 2u),
             "soc_point: --channels=%u is too few for --config=%s",
             p.dramChannels,
             soc::memConfigName(p.memConfig));
    double fps = cfg.getDouble("fps", 0.0);
    if (fps > 0.0)
        p.gpuFramePeriod = ticksFromMs(1000.0 / fps);
    soc::applyNpuConfig(p, cfg);

    // The one simulation of the point: bare result keys, and a
    // checkpoint subdirectory keyed by the point's fingerprint
    // (builderFor). The replay root gets the per-model subdir fig12
    // capture runs produce.
    SimulationBuilder builder = harness.builderFor("");
    std::string model_dir = "/";
    model_dir += scenes::workloadName(p.model);
    std::string capture_root = cfg.getString("capture-trace", "");
    if (!capture_root.empty())
        builder.captureTrace(capture_root + model_dir);
    std::string replay_root = cfg.getString("replay-trace", "");
    if (!replay_root.empty())
        builder.replayTrace(replay_root + model_dir);

    soc::SocTop soc(p, builder);
    auto wall_start = std::chrono::steady_clock::now();
    soc.run();
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();

    harness.record("gpu_ms", soc.meanGpuFrameMs());
    harness.record("total_ms", soc.meanTotalFrameMs());
    if (soc.npuCamera()) {
        harness.record("npu_deadline_misses",
                       soc.npuCamera()->statDeadlineMisses.value());
        harness.record("npu_dropped",
                       soc.npuCamera()->statDropped.value());
        harness.record("npu_completed",
                       soc.npuCamera()->statCompleted.value());
    }

    std::printf("soc_point %s/%s: gpu %.3f ms, total %.3f ms "
                "(%.0f ms wall)\n",
                scenes::workloadName(p.model),
                soc::memConfigName(p.memConfig), soc.meanGpuFrameMs(),
                soc.meanTotalFrameMs(), wall_ms);

    std::printf("\n%-6s %12s %12s %12s\n", "frame", "prep(ms)",
                "render(ms)", "total(ms)");
    for (std::size_t i = 0; i < soc.app().frames().size(); ++i) {
        const auto &f = soc.app().frames()[i];
        std::printf("%-6zu %12.3f %12.3f %12.3f\n", i,
                    msFromTicks(f.renderStart - f.prepStart),
                    msFromTicks(f.gpuTime()), msFromTicks(f.totalTime()));
    }
    mem::MemorySystem &dram = soc.memory();
    auto mb = [](std::uint64_t bytes) {
        return static_cast<double>(bytes) / 1e6;
    };
    std::printf("\nDRAM: %.2f MB total (CPU %.2f, GPU %.2f, display "
                "%.2f), row-hit rate %.3f, %.1f bytes/activation\n",
                mb(dram.totalBytes()), mb(dram.bytesFor(TrafficClass::Cpu)),
                mb(dram.bytesFor(TrafficClass::Gpu)),
                mb(dram.bytesFor(TrafficClass::Display)),
                dram.rowHitRate(), dram.meanBytesPerActivation());
    std::printf("display: %.0f frames completed, %.0f aborted, %.0f "
                "underruns\n",
                soc.display().statFramesCompleted.value(),
                soc.display().statFramesAborted.value(),
                soc.display().statUnderruns.value());
    return 0;
}

const RegisterScenario reg{{
    .name = "soc_point",
    .desc = "one SocTop run, fully parameterized — the sweep unit",
    .run = runScenario,
    .kind = ScenarioKind::Aux,
    .quick = true,
}};

} // namespace
